"""Discrete singular-kernel calculus diagnostics.

A kernel is a field on the space-time grid supported near the origin (time
rows n = 0.. are t = n eps^2; space is the torus with signed coordinates).
Its order-zeta norm takes forward differences in space and time,

    max_{|k|_s <= m} sup_z |Dbar^k K(z)| / |z|_{s,eps}^(zeta - |k|_s),

with |z|_{s,eps} = (sqrt(t) v |x|) v eps and |k|_s = 2 k0 + k1. Stability
of the value across N certifies the claimed order empirically. Twisted
products act slice-wise; convolutions are eps^3-weighted space-time sums,
linear in time and circular in space. Kernels are real, so they are
convolved on real half-spectra (rfft modes 0..M/2) and only over the rows
they occupy: each input is cut after its last nonzero row before the time
FFT, and the output rows past the computed ones are exact zeros. The
renormalized convolution pairs the first kernel against increments, which
is the plain convolution minus the kernel mass times the second factor.

The whole-field passes run one block of about operators._BLOCK_BYTES at a
time: the order norm's z-norms, differences and ratios per block of rows
(the time difference reads one row past the block), the time FFTs of a
convolution per block of columns into its one spectrum, the inverse space
transform per block of rows into the output, which reuses the spectrum's
buffer, the renormalized convolution's mass term per block of rows in
place, and |DxK|^2 per block of rows. Each step is elementwise, per row or
column, or a max, so the results equal the whole-field passes bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, mollify, rng_for
from .heat import HeatKernel, parabolic_norm, signed_torus_coordinate
from .measures import AtomicMeasure2D
from .operators import (
    OperatorFamily,
    _blocks,
    _convolve_spectrum,
    _time_length,
    _time_spectrum,
    derivative_multiplier,
    twisted_product,
)

__all__ = [
    "DiscreteKernel",
    "order_norm",
    "kernel_mass",
    "twisted_kernel_product",
    "convolve_kernels",
    "renormalized_convolve",
    "renormalized_square_check",
    "increment_bound_probe",
    "mollification_loss_probe",
]

SPACE_TIME_DIM = 3  # |s| = 2 + 1 for parabolic scaling
# seeded grid pairs that increment_bound_probe samples, and the seed of
# every sampled check here
PROBE_PAIRS = 4096
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
    """|z|_{s,eps} at time rows n and sites x, index arrays that broadcast together."""
    t = n * grid.dt
    xs = signed_torus_coordinate(grid.M, grid.eps)[x]
    return np.maximum(parabolic_norm(t, xs), grid.eps)


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
    best = 0.0
    # a non-finite value makes a non-finite ratio, which raises below
    with np.errstate(invalid="ignore", over="ignore"):
        for rows in _blocks(nt, 8 * grid.M):
            zn = _znorm_eps(np.arange(rows.start, rows.stop)[:, None], np.arange(grid.M), grid)
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


def _pad_match(a: np.ndarray, b: np.ndarray):
    rows = max(a.shape[0], b.shape[0])
    pa = np.zeros((rows, a.shape[1]))
    pb = np.zeros((rows, b.shape[1]))
    pa[: a.shape[0]] = a
    pb[: b.shape[0]] = b
    return pa, pb


def twisted_kernel_product(k1: DiscreteKernel, k2: DiscreteKernel, mu: AtomicMeasure2D) -> DiscreteKernel:
    """Slice-wise twisted product under mu; claimed order adds."""
    if k1.grid != k2.grid:
        raise ValueError("kernels live on different grids")
    a, b = _pad_match(k1.values, k2.values)
    vals = twisted_product(mu, a, b)
    return DiscreteKernel(values=vals, grid=k1.grid, claimed_order=k1.claimed_order + k2.claimed_order)


def _occupied_rows(a: np.ndarray) -> int:
    """Number of rows up to and including the last nonzero one (0 if all zero)."""
    nonzero = np.flatnonzero(np.any(a != 0.0, axis=1))
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _spacetime_convolve(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """eps^3 sum_w a(w) b(z - w) on rows 0..n1+n2-2, over the rows a and b occupy.

    The (L, M/2+1) time spectrum and the (n_out, M) output share one float
    buffer, the spectrum as a complex view of its head. a's half-spectrum is
    dropped once its time FFT is in the spectrum, before b's is made. The
    inverse space transform is written a block of rows at a time, in
    increasing row order, over the spectrum: output row i ends at byte
    8M (i + 1) and spectrum row i + 1 starts at byte (8M + 16)(i + 1), so no
    block overwrites a spectrum row still to be read. The rows past the
    computed ones are then zeroed. The result is a view of that buffer.
    """
    r1, r2 = _occupied_rows(a), _occupied_rows(b)
    n_out, M = a.shape[0] + b.shape[0] - 1, grid.M
    if not (r1 and r2):
        return np.zeros((n_out, M))
    L, half = _time_length(r1 + r2), M // 2 + 1
    buf = np.empty(max(2 * L * half, n_out * M))
    spec = buf[: 2 * L * half].view(np.complex128).reshape(L, half)
    _time_spectrum(np.fft.rfft(a[:r1], axis=1), L, out=spec)
    _convolve_spectrum(spec, np.fft.rfft(b[:r2], axis=1))
    out = buf[: n_out * M].reshape(n_out, M)
    for rows in _blocks(r1 + r2 - 1, 8 * M):
        np.multiply(grid.eps**3, np.fft.irfft(spec[rows], n=M, axis=1), out=out[rows])
    out[r1 + r2 - 1 :] = 0.0
    return out


def convolve_kernels(k1: DiscreteKernel, k2: DiscreteKernel) -> DiscreteKernel:
    """eps^3-weighted space-time convolution; claimed order gains |s| = 3."""
    if k1.grid != k2.grid:
        raise ValueError("kernels live on different grids")
    vals = _spacetime_convolve(k1.values, k2.values, k1.grid)
    return DiscreteKernel(values=vals, grid=k1.grid, claimed_order=k1.claimed_order + k2.claimed_order + SPACE_TIME_DIM)


def renormalized_convolve(k1: DiscreteKernel, k2: DiscreteKernel) -> DiscreteKernel:
    """(R K1 * K2)(z) = eps^3 sum_w K1(w) (K2(z - w) - K2(z)).

    Admissible only on the lemma's order window: zeta1 in (-4, -3] and
    zeta2 in (-6 - zeta1, 0].
    """
    z1, z2 = k1.claimed_order, k2.claimed_order
    if not (-SPACE_TIME_DIM - 1 < z1 <= -SPACE_TIME_DIM):
        raise ValueError(f"zeta1={z1} outside (-4, -3]")
    if not (-2 * SPACE_TIME_DIM - z1 < z2 <= 0.0):
        raise ValueError(f"zeta2={z2} outside ({-2 * SPACE_TIME_DIM - z1}, 0]")
    if k1.grid != k2.grid:
        raise ValueError("kernels live on different grids")
    vals = _spacetime_convolve(k1.values, k2.values, k1.grid)
    mass = kernel_mass(k1)
    for rows in _blocks(k2.values.shape[0], 8 * k1.grid.M):
        vals[rows] -= mass * k2.values[rows]
    return DiscreteKernel(values=vals, grid=k1.grid, claimed_order=z1 + z2 + SPACE_TIME_DIM)


def increment_bound_probe(k: DiscreteKernel, kappa: float) -> float:
    """Empirical sup of |K(z) - K(zbar)| / (|z-zbar|^kappa (|z|^(z-k) + |zbar|^(z-k))).

    Sampled over PROBE_PAIRS seeded random grid pairs, with |z|_{s,eps} taken
    at the sampled points only; kappa = 0 collapses to the
    triangle-inequality consequence of the order norm.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    grid = k.grid
    nt, M = k.values.shape
    gen = rng_for(PROBE_SEED, 90)
    zeta = k.claimed_order
    i1 = gen.integers(0, nt, PROBE_PAIRS)
    j1 = gen.integers(0, M, PROBE_PAIRS)
    i2 = gen.integers(0, nt, PROBE_PAIRS)
    j2 = gen.integers(0, M, PROBE_PAIRS)
    same = (i1 == i2) & (j1 == j2)
    i2[same] = (i2[same] + 1) % nt
    num = np.abs(k.values[i1, j1] - k.values[i2, j2])
    dt_gap = np.abs(i1 - i2) * grid.dt
    dx_gap = np.abs(signed_torus_coordinate(M, grid.eps)[(j1 - j2) % M])
    sep = np.maximum(parabolic_norm(dt_gap, dx_gap), grid.eps)
    denom = sep**kappa * (_znorm_eps(i1, j1, grid) ** (zeta - kappa) + _znorm_eps(i2, j2, grid) ** (zeta - kappa))
    return float(np.max(num / denom))


def mollification_loss_probe(k: DiscreteKernel, eps_bar_cells: int, kappa: float) -> float:
    """order_norm(K - K_mollified, zeta - kappa) / eps_bar^kappa, at depth 0.

    The mollifier is the parabolic rescaling of the smooth bump to
    eps_bar = eps_bar_cells * eps, sampled on the grid with discrete mass
    one: ``grids.mollify`` at radii (cells^2 - 1, cells - 1), the last cells
    inside the bump's support. Boundedness across eps_bar values certifies
    the smoothing loss bound; one cell is the identity.
    """
    if eps_bar_cells < 1:
        raise ValueError("eps_bar must be at least one cell")
    grid = k.grid
    mollified = mollify(k.values, grid, eps_bar_cells**2 - 1, eps_bar_cells - 1)
    diff = DiscreteKernel(values=k.values - mollified, grid=grid, claimed_order=k.claimed_order - kappa)
    eps_bar = eps_bar_cells * grid.eps
    return order_norm(diff, k.claimed_order - kappa) / eps_bar**kappa


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
    """Split kernel K, R(|DxK|^2) * K and the renormalized-convolution residual.

    K (order -1) is the singular part of the heat kernel split at the grid
    horizon and DxK its spectral derivative; |DxK|^2 is taken at order -3.5.
    The residual compares the FFT route of ``renormalized_convolve`` with the
    direct sum eps^3 sum_w |DxK|^2(w) (K(z - w) - K(z)), K zero outside its
    rows, at CHECK_POINTS seeded points z and the four corners: the largest
    gap over the sup of the FFT result. Returns (K, R(|DxK|^2) * K, residual).
    """
    K = HeatKernel(grid, fam).split(grid.T).K
    kern = DiscreteKernel(K, grid, -1.0)
    dmult = derivative_multiplier(fam, grid.eps, grid.M)[: grid.M // 2 + 1]
    dxk_sq = np.empty_like(K)
    for rows in _blocks(K.shape[0], 8 * grid.M):
        np.square(np.fft.irfft(np.fft.rfft(K[rows], axis=1) * dmult, n=grid.M, axis=1), out=dxk_sq[rows])
    sq = DiscreteKernel(dxk_sq, grid, -3.5)
    ident = renormalized_convolve(sq, kern)
    rows, M = ident.values.shape
    gen = rng_for(PROBE_SEED, 91)
    points = [(0, 0), (0, M - 1), (rows - 1, 0), (rows - 1, M - 1)]
    points += zip(gen.integers(0, rows, CHECK_POINTS).tolist(), gen.integers(0, M, CHECK_POINTS).tolist())
    n_idx, x_idx = np.array(points).T
    gap = np.max(np.abs(_direct_sums(K, sq.values, points, grid.eps) - ident.values[n_idx, x_idx]))
    sup = max(float(ident.values.max()), -float(ident.values.min()))  # max |ident|, with no |ident| field
    return kern, ident, float(gap) / sup
