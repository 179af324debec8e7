"""Discrete singular-kernel calculus diagnostics.

A kernel is a field on the space-time grid supported near the origin (time
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
input is cut after its last nonzero row before the time FFT, and the
output rows past the computed ones are exact zeros.

The whole-field passes run one block of about operators._BLOCK_BYTES at a
time: the order norm's z-norms, differences and ratios per block of rows
(the time difference reads one row past the block); in a convolution the
first input's space transform per block of rows into the head of its one
buffer, the zero-padded time FFTs (length ``_time_length``) per block of
columns in place, and the inverse space transform per block of rows over
the spectrum into the output, to which the buffer is then cut; the
renormalized convolution's mass term per block of rows in place; and
|DxK|^2 per block of rows. Each step is elementwise, per row or column, or
a max, so the results equal the whole-field passes bit for bit.

A convolution is two halves, ``_first_operand`` (the first input into the
buffer) and ``_finish_with`` (the second input into the output), and this
module holds the whole pipeline and its buffer layout. A caller can drop
the first input in between; the peak is the buffer, max(2 L (M/2+1),
n_out M) floats, and one input's half-spectrum. The renormalized-square
check drops |DxK|^2 there, after its direct sums and mass: its peak is K,
the buffer and K's half-spectrum, which ``square_check_bytes`` bounds
before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, rng_for
from .heat import HeatKernel, parabolic_norm
from .operators import _BLOCK_BYTES, OperatorFamily, _blocks, derivative_multiplier, modes

__all__ = [
    "DiscreteKernel",
    "order_norm",
    "kernel_mass",
    "renormalized_square_check",
    "square_check_bytes",
]

SPACE_TIME_DIM = 3  # |s| = 2 + 1 for parabolic scaling
# the seed of every sampled check here
PROBE_SEED = 0
# seeded points (besides the corners) where renormalized_square_check sums directly
CHECK_POINTS = 32


@dataclass(frozen=True)
class DiscreteKernel:
    """Kernel values on rows t = 0, eps^2, ... with a claimed order."""

    values: np.ndarray
    grid: GridSpec
    claimed_order: float

    def __post_init__(self):
        v = np.atleast_2d(self.values)
        if v.shape[1] != self.grid.M:
            raise ValueError("kernel width disagrees with grid")
        object.__setattr__(self, "values", v)


def _znorm_eps(n: np.ndarray, x: np.ndarray, grid: GridSpec) -> np.ndarray:
    """|z|_{s,eps} at time rows n and signed site coordinates x (of eps * modes(M)), arrays that broadcast together."""
    return np.maximum(parabolic_norm(n * grid.dt, x), grid.eps)


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


def _not_finite(values: np.ndarray) -> ValueError:
    """The error for a kernel whose order-norm ratios are not all finite, naming its first non-finite value."""
    bad = np.argwhere(~np.isfinite(values))
    if not len(bad):
        return ValueError("order-norm ratios overflow on a finite kernel")
    first = tuple(int(i) for i in bad[0])
    return ValueError(f"kernel has {len(bad)} non-finite values, the first {values[first]} at (row, site) {first}")


def order_norm(k: DiscreteKernel, zeta: float, m: int = 0) -> float:
    """Exact maximum of the order-zeta ratios up to derivative depth m, the int 0, 1 or 2.

    A kernel with a non-finite value has no order norm: ValueError.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m not in (0, 1, 2):
        raise ValueError(f"derivative depth m must be the int 0, 1 or 2, not {m!r}")
    values, grid = k.values, k.grid
    nt = values.shape[0]
    x = grid.eps * modes(grid.M)
    best = 0.0
    # a non-finite value makes a non-finite ratio, which raises below
    with np.errstate(invalid="ignore", over="ignore"):
        for rows in _blocks(nt, 8 * grid.M):
            zn = _znorm_eps(np.arange(rows.start, rows.stop)[:, None], x, grid)
            diffs = _forward_diffs(values[rows], grid, m)
            if m == 2 and rows.stop < nt:
                # the block's last time difference reads the next block's first row
                diffs[(1, 0)][-1] = (values[rows.stop] - values[rows.stop - 1]) / grid.dt
            denominators = {}
            for (k0, k1), arr in diffs.items():
                order = 2 * k0 + k1
                if order not in denominators:
                    denominators[order] = zn ** (zeta - order)
                peak = float(np.max(np.abs(arr) / denominators[order]))
                if not math.isfinite(peak):
                    raise _not_finite(values)
                best = max(best, peak)
    return best


def kernel_mass(k: DiscreteKernel) -> float:
    return float(k.grid.eps**3 * np.sum(k.values))


def _occupied_rows(a: np.ndarray) -> int:
    """Number of rows up to and including the last nonzero one (0 if all zero)."""
    nonzero = np.flatnonzero(np.any(a != 0.0, axis=1))
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _time_length(n: int) -> int:
    """The power of two L >= n that the time FFTs zero-pad to."""
    L = 1
    while L < n:
        L *= 2
    return L


def _first_operand(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> tuple:
    """The first half of the convolution of a with b: a's time spectrum in a new buffer.

    The buffer holds max(2 L (M/2+1), n_out M) floats, n_out = n1 + n2 - 1:
    the (L, M/2+1) spectrum as a complex view of its head, and later the
    (n_out, M) output. a's half-spectrum is written into the spectrum's head
    rows a block of rows at a time, and each block of columns is then
    time-transformed in place, read whole before it is written. b is read
    for its rows only, so a caller may drop a before b's half-spectrum is
    made. Returns (buffer, r1, r2, n_out), with r1 and r2 the rows a and b
    occupy; when either is 0 the buffer is the all-zero output.
    """
    r1, r2 = _occupied_rows(a), _occupied_rows(b)
    n_out, M = a.shape[0] + b.shape[0] - 1, grid.M
    if not (r1 and r2):
        return np.zeros(n_out * M), r1, r2, n_out
    L, half = _time_length(r1 + r2), M // 2 + 1
    buf = np.empty(max(2 * L * half, n_out * M))
    spec = buf[: 2 * L * half].view(np.complex128).reshape(L, half)
    for rows in _blocks(r1, 8 * M):
        spec[rows] = np.fft.rfft(a[rows], axis=1)
    for cols in _blocks(half, 16 * L):
        spec[:, cols] = np.fft.fft(spec[:r1, cols], n=L, axis=0)
    return buf, r1, r2, n_out


def _finish_with(first: tuple, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The second half: multiply ``_first_operand``'s spectrum by b's, invert, and shrink the buffer to the output.

    b's time spectrum multiplies the spectrum, which is inverted in time in
    place, a block of columns at a time. The inverse space transform is
    written a block of rows at a time, in increasing row order, over the
    spectrum: output row i ends at byte 8M (i + 1) and spectrum row i + 1
    starts at byte (8M + 16)(i + 1), so no block overwrites a spectrum row
    still to be read. The rows past the computed ones are then zeroed, and
    the buffer is cut to the n_out M floats of the output in place, so the
    result holds nothing else.
    """
    buf, r1, r2, n_out = first
    M = grid.M
    if r1 and r2:
        L, half = _time_length(r1 + r2), M // 2 + 1
        spec = buf[: 2 * L * half].view(np.complex128).reshape(L, half)
        b_hat = np.fft.rfft(b[:r2], axis=1)
        for cols in _blocks(half, 16 * L):
            block = spec[:, cols]
            block *= np.fft.fft(b_hat[:, cols], n=L, axis=0)
            block[...] = np.fft.ifft(block, axis=0)
        out = buf[: n_out * M].reshape(n_out, M)
        for rows in _blocks(r1 + r2 - 1, 8 * M):
            np.multiply(grid.eps**3, np.fft.irfft(spec[rows], n=M, axis=1), out=out[rows])
        out[r1 + r2 - 1 :] = 0.0
        del spec, out
        # no view of buf is left, and the caller's handle on it is the array
        # itself, which the resize updates; shrinking moves no data
        buf.resize(n_out * M, refcheck=False)
    return buf.reshape(n_out, M)


def _renormalized(first: tuple, mass: float, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The FFT route of R K1 * K2 from K1's first half: the convolution minus mass times b, per block of rows in place."""
    vals = _finish_with(first, b, grid)
    for rows in _blocks(b.shape[0], 8 * grid.M):
        vals[rows] -= mass * b[rows]
    return vals


def _direct_sums(K: np.ndarray, sq: np.ndarray, points, eps: float) -> np.ndarray:
    """eps^3 sum_w sq(w) (K(z - w) - K(z)) at each point z = (n, x), K zero outside its rows.

    The literal increment sum over every w of sq's grid: rows s where
    K(z - w) = 0 add -K(z) times sq; on the others it is row n - s of K at
    sites x, .., 0, M - 1, .., x + 1, two reversed slices copied into one buffer.
    """
    nk = K.shape[0]
    terms = np.empty(sq.shape)
    out = np.empty(len(points))
    for i, (n, x) in enumerate(points):
        # w = (s, y) with K(z - w) inside K's rows: nk > n - s >= 0
        lo, hi = max(0, n - nk + 1), min(n, nk - 1) + 1
        kz = K[n, x] if n < nk else 0.0
        terms[:lo] = 0.0 - kz
        terms[hi:] = 0.0 - kz
        if lo < hi:
            rows = K[n - hi + 1 : n - lo + 1][::-1]  # rows n - s for s = lo .. hi - 1
            # copied first: a subtract that reads the reversed slices is slower
            np.copyto(terms[lo:hi, : x + 1], rows[:, x::-1])
            np.copyto(terms[lo:hi, x + 1 :], rows[:, :x:-1])
            np.subtract(terms[lo:hi], kz, out=terms[lo:hi])
        np.multiply(sq, terms, out=terms)
        out[i] = eps**3 * np.sum(terms)
    return out


def renormalized_square_check(fam: OperatorFamily, grid: GridSpec) -> tuple[DiscreteKernel, DiscreteKernel, float]:
    """Singular kernel K, R(|DxK|^2) * K and the renormalized-convolution residual.

    K (order -1) is the singular part of the heat kernel up to the grid
    horizon and DxK its spectral derivative; |DxK|^2 is taken at order -3.5.
    The residual compares the FFT route (``_renormalized``) with the
    direct sum eps^3 sum_w |DxK|^2(w) (K(z - w) - K(z)), K zero outside its
    rows, at CHECK_POINTS seeded points z and the four corners: the largest
    gap over the sup of the FFT result. Returns (K, R(|DxK|^2) * K, residual).

    The direct sums and the mass of |DxK|^2 are taken first; |DxK|^2 is then
    put into the convolution's buffer and dropped before K's half-spectrum
    is made, so the peak is K, the buffer and one half-spectrum
    (``square_check_bytes``).
    """
    K = HeatKernel(grid, fam).singular_part(grid.T)
    M = grid.M
    dmult = derivative_multiplier(fam, grid.eps, M)[: M // 2 + 1]
    dxk_sq = np.empty_like(K)
    for rows in _blocks(K.shape[0], 8 * M):
        np.square(np.fft.irfft(np.fft.rfft(K[rows], axis=1) * dmult, n=M, axis=1), out=dxk_sq[rows])
    rows = 2 * K.shape[0] - 1
    gen = rng_for(PROBE_SEED, 91)
    points = [(0, 0), (0, M - 1), (rows - 1, 0), (rows - 1, M - 1)]
    points += zip(gen.integers(0, rows, CHECK_POINTS).tolist(), gen.integers(0, M, CHECK_POINTS).tolist())
    direct = _direct_sums(K, dxk_sq, points, grid.eps)
    mass = kernel_mass(DiscreteKernel(dxk_sq, grid, -3.5))
    first = _first_operand(dxk_sq, K, grid)
    del dxk_sq
    ident = DiscreteKernel(_renormalized(first, mass, K, grid), grid, -3.5 + -1.0 + SPACE_TIME_DIM)
    n_idx, x_idx = np.array(points).T
    gap = np.max(np.abs(direct - ident.values[n_idx, x_idx]))
    sup = max(float(ident.values.max()), -float(ident.values.min()))  # max |ident|, with no |ident| field
    return DiscreteKernel(K, grid, -1.0), ident, float(gap) / sup


def square_check_bytes(grid: GridSpec) -> int:
    """Bytes that ``renormalized_square_check`` holds at its peak on this grid, as an upper bound.

    K, the convolution's buffer and K's half-spectrum. K has n_steps + 1
    rows; its cutoff vanishes from t = 1/4 on, so it occupies at most
    min(n_steps + 1, M^2 / 4) rows, and so does |DxK|^2. |DxK|^2 beside K
    and the buffer, the direct sums' scratch beside K and |DxK|^2, and the
    singular part's blocks of P beside K hold less. Four blocks of the blocked passes, each
    at least one column of the time FFTs, cover their temporaries.
    """
    M, rows = grid.M, grid.n_steps + 1
    occupied = min(rows, max(1, M * M // 4))
    L, half = _time_length(2 * occupied), M // 2 + 1
    buffer = 8 * max(2 * L * half, (2 * rows - 1) * M)
    return 8 * rows * M + buffer + 16 * occupied * half + 4 * max(_BLOCK_BYTES, 16 * L)
