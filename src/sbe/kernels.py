"""Order norms of discrete singular kernels and the renormalized-square check.

A kernel is an array on the space-time grid supported near the origin (time
rows n = 0.. are t = n eps^2; space is the torus with signed coordinates).
Its order-zeta norm takes forward differences in space and time,

    max_{|k|_s <= m} sup_z |Dbar^k K(z)| / |z|_{s,eps}^(zeta - |k|_s),

with |z|_{s,eps} = (sqrt(t) v |x|) v eps and |k|_s = 2 k0 + k1. Stability
of the value across N certifies the claimed order empirically.

The renormalized-square check behind ``kernel-diagnostics`` and criterion 9
pairs |DxK|^2 against increments of K: the renormalized convolution
R(|DxK|^2) * K is the plain convolution minus the mass of |DxK|^2 times K.
Convolutions are eps^3-weighted space-time sums, linear in time and
circular in space. Kernels are real, so they are convolved on real
half-spectra (rfft modes 0..M/2) and only over the rows they occupy: each
input is cut after its last nonzero row, and the output rows past the
computed ones are exact zeros.

A convolution runs in one buffer of half-spectra laid out by time
(``_spectra``), which ``_convolved`` transforms a block of frequency
columns at a time and writes back in place, yielding the output a block
of rows at a time. The check holds |DxK|^2 and K in that buffer, turns
them into their spectra in place and makes K again a block at a time
(``HeatKernel.singular_blocks``) where the output subtracts it, so K is
made twice and the check's peak is the buffer. The check's direct sums add
their terms in the pairwise tree of np.sum (``_pairwise``), one leaf of
_LEAF items at a time in a scratch of a few rows, each leaf made for every
point while its rows are in cache.

Every other pass runs one block of about operators._BLOCK_BYTES at a time
(the order norm's time difference reads one row past its block), and an
order norm's powers of |z|_{s,eps} are taken once per row and once per
site. Each step is elementwise, per row, or a max, and each direct sum
adds the same terms in the same tree, so the results equal the
whole-field passes bit for bit.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from .grids import GridSpec, rng_for
from .heat import HeatKernel
from .operators import _BLOCK_BYTES, OperatorFamily, _blocks, derivative_multiplier, modes

__all__ = [
    "order_norm",
    "renormalized_square_check",
    "square_check_bytes",
]

SPACE_TIME_DIM = 3  # |s| = 2 + 1 for parabolic scaling
# seeded points (besides the corners) where renormalized_square_check sums directly
CHECK_POINTS = 32
# items in a leaf of the direct sums' pairwise trees: at least the 128 that
# np.sum adds in one loop, and few enough (256 KiB) that a leaf stays in cache
_LEAF = 1 << 15


def _space_diff(u: np.ndarray, eps: float) -> np.ndarray:
    """(u(. + eps) - u) / eps along the last axis: one subtract over the rows end to end, then the wrap column's."""
    out = np.empty_like(u)
    flat, flat_out = u.reshape(-1), out.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=flat_out[:-1])
    np.subtract(u[..., 0], u[..., -1], out=out[..., -1])
    return np.divide(out, eps, out=out)


def _forward_diffs(values: np.ndarray, grid: GridSpec, m: int) -> dict:
    """Forward differences Dbar^(k0,k1) for 2 k0 + k1 <= m, zero-padded in time."""
    out = {(0, 0): values}
    if m >= 1:
        out[(0, 1)] = _space_diff(values, grid.eps)
    if m >= 2:
        out[(0, 2)] = _space_diff(out[(0, 1)], grid.eps)
        padded = np.vstack([values, np.zeros((1, values.shape[1]))])
        out[(1, 0)] = (padded[1:] - padded[:-1]) / grid.dt
    return out


def _not_finite(values: np.ndarray, rows: slice | None = None) -> ValueError:
    """The error for a kernel, or its given rows, whose order-norm ratios are not all finite, naming its first non-finite value."""
    bad = np.argwhere(~np.isfinite(values))
    if not len(bad):
        return ValueError("order-norm ratios overflow on a finite kernel")
    row, site = (int(i) for i in bad[0])
    where, start = ("", 0) if rows is None else (f" in rows {rows.start}..{rows.stop - 1}", rows.start)
    return ValueError(
        f"kernel has {len(bad)} non-finite values{where}, the first {values[row, site]} at (row, site) {(row + start, site)}"
    )


def _peak(diffs: dict, start: int, grid: GridSpec, zeta: float) -> float:
    """The largest order-zeta ratio of a block's forward differences, its first row time row start; not finite if a ratio is not.

    |z|_{s,eps} is the larger of the row's sqrt(t) v eps and the site's
    |x| v eps, so each power of it is taken once per row and once per site
    and picked per element: the same pow of the same value as on the whole
    field, bit for bit.
    """
    n = np.arange(start, start + len(diffs[(0, 0)]))[:, None]
    row = np.maximum(np.sqrt(n * grid.dt), grid.eps)
    site = np.maximum(np.abs(grid.eps * modes(grid.M)), grid.eps)
    nearer = row >= site  # where |z|_{s,eps} is the row's
    best, denominators = 0.0, {}
    for (k0, k1), arr in diffs.items():
        order = 2 * k0 + k1
        if order not in denominators:
            denominators[order] = np.where(nearer, row ** (zeta - order), site ** (zeta - order))
        peak = float(np.max(np.abs(arr) / denominators[order]))
        if not math.isfinite(peak):
            return peak
        best = max(best, peak)
    return best


def order_norm(values: np.ndarray, grid: GridSpec, zeta: float, m: int = 0) -> float:
    """Exact maximum of the order-zeta ratios of a kernel on grid up to derivative depth m, the int 0, 1 or 2.

    A kernel not M sites wide, or with a non-finite value, is a ValueError.
    """
    values = np.atleast_2d(values)
    if values.shape[1] != grid.M:
        raise ValueError("kernel width disagrees with grid")
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m not in (0, 1, 2):
        raise ValueError(f"derivative depth m must be the int 0, 1 or 2, not {m!r}")
    nt = values.shape[0]
    best = 0.0
    # a non-finite value makes a non-finite ratio, which raises below
    with np.errstate(invalid="ignore", over="ignore"):
        for rows in _blocks(nt, 8 * grid.M):
            diffs = _forward_diffs(values[rows], grid, m)
            if m == 2 and rows.stop < nt:
                # the block's last time difference reads the next block's first row
                diffs[(1, 0)][-1] = (values[rows.stop] - values[rows.stop - 1]) / grid.dt
            peak = _peak(diffs, rows.start, grid, zeta)
            if not math.isfinite(peak):
                raise _not_finite(values)
            best = max(best, peak)
    return best


def _occupied_rows(a: np.ndarray) -> int:
    """Number of rows up to and including the last nonzero one (0 if all zero), read a block of rows at a time from the end."""
    for rows in reversed(_blocks(a.shape[0], a.shape[1])):
        nonzero = np.flatnonzero(np.any(a[rows] != 0.0, axis=1))
        if nonzero.size:
            return rows.start + int(nonzero[-1]) + 1
    return 0


def _time_length(n: int) -> int:
    """The power of two L >= n that the time FFTs zero-pad to."""
    L = 1
    while L < n:
        L *= 2
    return L


def _spectra(buf: np.ndarray, rows: int, M: int) -> np.ndarray:
    """The time-major view of buf's head: ``rows`` rows of M/2+1 complex values, one half-spectrum per time row."""
    return buf[: rows * (M + 2)].view(np.complex128).reshape(rows, M // 2 + 1)


def _convolved(spec: np.ndarray, r1: int, r2: int, n_out: int, grid: GridSpec, b_blocks, mass: float):
    """The n_out rows of a * b minus mass times b, from their half-spectra in spec, as new blocks (rows, block) in order.

    Rows 0 .. r1 - 1 of spec hold a's half-spectra, one per time row, and
    the next r2 rows b's. A block of frequency columns of each is
    time-transformed along spec's rows (numpy gathers each column into a
    contiguous line zero-padded to L), a's spectrum multiplied by b's and
    inverted, and its first r1 + r2 - 1 rows scattered back into spec. A
    block of output is those rows, contiguous, inverse transformed and
    scaled by eps^3, exact zeros from row r1 + r2 - 1 on, minus mass times
    the rows of b it meets; b's rows come as blocks (rows, block) in order
    from row 0, of any size.
    """
    half, L, done = spec.shape[1], _time_length(r1 + r2), r1 + r2 - 1
    for cs in _blocks(half, 16 * L):
        prod = np.fft.fft(spec[:r1, cs], n=L, axis=0)
        prod *= np.fft.fft(spec[r1 : r1 + r2, cs], n=L, axis=0)
        spec[:done, cs] = np.fft.ifft(prod, axis=0)[:done]
    M = grid.M
    b_blocks = iter(b_blocks)
    b_rows, b = next(b_blocks, (None, None))
    for rows in _blocks(n_out, 8 * M):
        block = np.zeros((rows.stop - rows.start, M))
        if rows.start < done:
            n = min(rows.stop, done) - rows.start
            np.multiply(grid.eps**3, np.fft.irfft(spec[rows.start : rows.start + n], n=M, axis=1), out=block[:n])
        while b is not None and b_rows.start < rows.stop:
            lo, hi = max(rows.start, b_rows.start), min(rows.stop, b_rows.stop)
            block[lo - rows.start : hi - rows.start] -= mass * b[lo - b_rows.start : hi - b_rows.start]
            if b_rows.stop > rows.stop:  # the rest of b's block meets the next output block
                break
            b_rows, b = next(b_blocks, (None, None))
        yield rows, block


def _reduce(blocks, points, grid: GridSpec, zeta: float) -> tuple[float, float, np.ndarray]:
    """The order-zeta norm at depth 0, the sup of |f| and f at points, of a field f given as (rows, block) in order.

    A non-finite value of f raises ValueError naming its (row, site) in f.
    """
    n_idx, x_idx = np.array(points).T
    at = np.empty(len(points))
    norm, hi, lo = 0.0, -math.inf, math.inf
    with np.errstate(invalid="ignore", over="ignore"):
        for rows, block in blocks:
            peak = _peak({(0, 0): block}, rows.start, grid, zeta)
            if not math.isfinite(peak):
                raise _not_finite(block, rows)
            norm, hi, lo = max(norm, peak), max(hi, float(block.max())), min(lo, float(block.min()))
            inside = (rows.start <= n_idx) & (n_idx < rows.stop)
            at[inside] = block[n_idx[inside] - rows.start, x_idx[inside]]
    return norm, max(hi, -lo), at


def _pairwise(a: int, n: int, leaf, cap: int) -> float:
    """The sum of items a .. a + n - 1 added as numpy's pairwise np.sum adds them, a span of at most cap items by leaf(a, n).

    np.sum of n contiguous float64 items splits them at n // 2, rounded down
    to a multiple of 8, until a span has at most 128 items, which it sums in
    one unrolled loop. A whole subtree summed alone gives the same bits, so
    with cap >= 128 and leaf(a, n) the np.sum of those items, this equals
    np.sum of all n.
    """
    if n <= cap:
        return leaf(a, n)
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(a, n2, leaf, cap) + _pairwise(a + n2, n - n2, leaf, cap)


def _direct_sums(K: np.ndarray, sq: np.ndarray, points, eps: float) -> np.ndarray:
    """eps^3 sum_w sq(w) (K(z - w) - K(z)) at each point z = (n, x), K zero outside its rows.

    The literal increment sum over every w of sq's grid, added as np.sum
    adds the field of terms of sq's shape, but one leaf of _LEAF items of
    its pairwise tree (``_pairwise``) at a time in a scratch of a few rows;
    each leaf is made for every point in turn while its rows of sq are in
    cache, and the tree adds the points' leaf sums elementwise. A leaf's
    rows s where K(z - w) = 0 are sq times -K(z); on the others it is row
    n - s of K at sites x, .., 0, M - 1, .., x + 1, two reversed slices
    copied in, minus K(z), times sq. The subtract is skipped where K(z) =
    0: it could only turn a -0.0 term into +0.0, and np.sum does not see
    the sign of a zero term (terms all zero sum to +0.0). A leaf with no
    row of the second kind at a point where K(z) = 0 sums to +0.0 (sq >= 0)
    and is not made.
    """
    nk, M = K.shape
    scratch = np.empty((_LEAF // M + 2) * M)  # a leaf meets at most _LEAF // M + 2 rows
    spans = []
    for n, x in points:
        # w = (s, y) with K(z - w) inside K's rows: nk > n - s >= 0
        kz = float(K[n, x]) if n < nk else 0.0
        spans.append((n, x, max(0, n - nk + 1), min(n, nk - 1) + 1, kz))

    def leaf(a: int, size: int) -> np.ndarray:
        r0, r1 = a // M, (a + size - 1) // M + 1
        terms, sums = scratch[: (r1 - r0) * M].reshape(r1 - r0, M), np.zeros(len(spans))
        for i, (n, x, lo, hi, kz) in enumerate(spans):
            if kz == 0.0 and (r1 <= lo or hi <= r0):
                continue
            s0 = min(max(lo, r0), r1)
            s1 = max(s0, min(hi, r1))
            np.multiply(sq[r0:s0], 0.0 - kz, out=terms[: s0 - r0])
            np.multiply(sq[s1:r1], 0.0 - kz, out=terms[s1 - r0 :])
            if s0 < s1:
                rows = K[n - s1 + 1 : n - s0 + 1][::-1]  # rows n - s for s = s0 .. s1 - 1
                inner = terms[s0 - r0 : s1 - r0]
                # copied first: a subtract that reads the reversed slices is slower
                np.copyto(inner[:, : x + 1], rows[:, x::-1])
                np.copyto(inner[:, x + 1 :], rows[:, :x:-1])
                if kz != 0.0:
                    np.subtract(inner, kz, out=inner)
                np.multiply(sq[s0:s1], inner, out=inner)
            sums[i] = np.sum(scratch[a - r0 * M : a - r0 * M + size])
        return sums

    return eps**3 * _pairwise(0, sq.size, leaf, _LEAF)


def _max_rows(grid: GridSpec) -> int:
    """The most rows K occupies on grid: its cutoff vanishes from t = 1/4 on, so min(n_steps + 1, M^2 / 4)."""
    return min(grid.n_steps + 1, max(1, grid.M * grid.M // 4))


def _buffer_items(grid: GridSpec) -> int:
    """Float64 items of the square check's buffer: two fields like K, or what the in-place conversion needs.

    |DxK|^2's field sits in the head and K's in the tail. K's half-spectra
    (M + 2 items a row) start after |DxK|^2's r1 rows of them and are
    written first rows first, so each block of them ends at or before K's
    first field row not yet read when K's field starts at (M + 2) r1 + 2 r2
    or later: M nt + (M + 2) r1 + 2 r2 items, with r1 <= r2 <= ``_max_rows``.
    """
    M, nt, r = grid.M, grid.n_steps + 1, _max_rows(grid)
    return max(2 * nt * M, nt * M + (M + 4) * r)


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the system (glibc's malloc_trim), where the C library has it.

    numpy arrays below the mmap threshold are freed into the heap, and its
    pages under a live chunk stay resident: after ``processes`` about 14 MB
    of them, which would sit beside the check's buffer at its peak.
    """
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # no glibc
        pass


def renormalized_square_check(fam: OperatorFamily, grid: GridSpec) -> tuple[float, float, float]:
    """The order norm of the singular kernel K, that of R(|DxK|^2) * K and the renormalized-convolution residual.

    K (order -1) is the singular part of the heat kernel up to the grid
    horizon, its norm taken at depth 2, and DxK its spectral derivative;
    |DxK|^2 is taken at order -3.5, so R(|DxK|^2) * K at order -1.5, whose
    norm is taken at depth 0. The residual compares the FFT route
    (``_convolved``) with the direct sum eps^3 sum_w |DxK|^2(w) (K(z - w) -
    K(z)), K zero outside its rows, at CHECK_POINTS seeded points z and the
    four corners: the largest gap over the sup of the FFT result. Returns
    (K's norm, norm, residual).

    One buffer holds |DxK|^2 in its head and K in its tail for the direct
    sums, the mass and K's norm; then both fields become their half-spectra
    in place, laid out by time (``_spectra``): |DxK|^2's last rows first,
    since row t's spectrum covers only field rows >= t, then K's first rows
    first, from row r1 on (``_buffer_items``). The mass times K that the
    output subtracts reads K made again a block at a time
    (``HeatKernel.singular_blocks``), so K is made twice; the direct sums
    make their terms a few rows at a time and the FFT result is reduced a
    block at a time, so the peak is the buffer. Free heap pages are handed
    back first (``_release_free_heap``), so what ran before leaves none of
    them beside it.
    """
    hk = HeatKernel(grid, fam)
    M, nt = grid.M, grid.n_steps + 1
    dmult = derivative_multiplier(fam, grid.eps, M)[: M // 2 + 1]
    _release_free_heap()
    buf = np.empty(_buffer_items(grid))
    sq, K = buf[: nt * M].reshape(nt, M), buf[len(buf) - nt * M :].reshape(nt, M)
    for rows, block in hk.singular_blocks(grid.T):
        K[rows] = block
        np.square(np.fft.irfft(np.fft.rfft(block, axis=1) * dmult, n=M, axis=1), out=sq[rows])
    n_out = 2 * nt - 1
    gen = rng_for(0, 91)
    points = [(0, 0), (0, M - 1), (n_out - 1, 0), (n_out - 1, M - 1)]
    points += zip(gen.integers(0, n_out, CHECK_POINTS).tolist(), gen.integers(0, M, CHECK_POINTS).tolist())
    direct = _direct_sums(K, sq, points, grid.eps)
    k_norm = order_norm(K, grid, -1.0, m=2)
    # a zero row of K makes a zero row of |DxK|^2, so r1 <= r2
    mass, r1, r2 = float(grid.eps**3 * np.sum(sq)), _occupied_rows(sq), _occupied_rows(K)
    spec = _spectra(buf, r1 + r2, M)  # from here on K and |DxK|^2 are overwritten
    for rows in reversed(_blocks(r1, 16 * M)):
        spec[rows] = np.fft.rfft(sq[rows], axis=1)
    for rows in _blocks(r2, 16 * M):
        spec[r1 + rows.start : r1 + rows.stop] = np.fft.rfft(K[rows], axis=1)
    blocks = _convolved(spec, r1, r2, n_out, grid, hk.singular_blocks(grid.T), mass)
    norm, sup, at = _reduce(blocks, points, grid, -3.5 + -1.0 + SPACE_TIME_DIM)
    return k_norm, norm, float(np.max(np.abs(direct - at))) / sup


def square_check_bytes(grid: GridSpec) -> int:
    """Bytes that ``renormalized_square_check`` holds at its peak on this grid, as an upper bound.

    The buffer (``_buffer_items``). The row blocks that turn the fields into
    spectra and the blocks of K made again beside it, the direct sums'
    scratch of _LEAF items and two rows and the order norm's blocks hold
    less than the temporaries of the convolution: twelve blocks, each at
    least one column of the time FFTs, cover them twice over, two for a
    block of columns' time spectra and about six for an output block and
    its reduction.
    """
    return 8 * _buffer_items(grid) + 12 * max(_BLOCK_BYTES, 16 * _time_length(2 * _max_rows(grid)))
