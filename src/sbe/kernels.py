"""Discrete singular-kernel calculus diagnostics.

A kernel is a field on the space-time grid supported near the origin (time
rows n = 0.. are t = n eps^2; space is the torus with signed coordinates).
Its order-zeta norm takes forward differences in space and time,

    max_{|k|_s <= m} sup_z |Dbar^k K(z)| / |z|_{s,eps}^(zeta - |k|_s),

with |z|_{s,eps} = (sqrt(t) v |x|) v eps and |k|_s = 2 k0 + k1. Stability
of the value across N certifies the claimed order empirically. Twisted
products act slice-wise; convolutions are eps^3-weighted space-time sums,
linear in time and circular in space. The renormalized convolution pairs
the first kernel against increments, which is the plain convolution minus
the kernel mass times the second factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, mollify, rng_for
from .heat import HeatKernel, signed_torus_coordinate
from .measures import AtomicMeasure2D
from .operators import OperatorFamily, derivative_multiplier, time_convolve, twisted_product

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


def _znorm_eps(n_rows: int, grid: GridSpec) -> np.ndarray:
    t = np.arange(n_rows)[:, None] * grid.dt
    x = signed_torus_coordinate(grid.M, grid.eps)[None, :]
    return np.maximum(np.maximum(np.sqrt(t), np.abs(x)), grid.eps)


def _forward_diffs(values: np.ndarray, grid: GridSpec, m: int) -> dict:
    """Forward differences Dbar^(k0,k1) for 2 k0 + k1 <= m, zero-padded in time."""
    out = {(0, 0): values}
    if m >= 1:
        dx = (np.roll(values, -1, axis=1) - values) / grid.eps
        out[(0, 1)] = dx
    if m >= 2:
        out[(0, 2)] = (np.roll(out[(0, 1)], -1, axis=1) - out[(0, 1)]) / grid.eps
        padded = np.vstack([values, np.zeros((1, values.shape[1]))])
        out[(1, 0)] = (padded[1:] - padded[:-1]) / grid.dt
    return out


def order_norm(k: DiscreteKernel, zeta: float, m: int = 0) -> float:
    """Exact maximum of the order-zeta ratios up to derivative depth m <= 2."""
    if m > 2:
        raise ValueError("derivative depth capped at 2")
    zn = _znorm_eps(k.values.shape[0], k.grid)
    best = 0.0
    for (k0, k1), arr in _forward_diffs(k.values, k.grid, m).items():
        order = 2 * k0 + k1
        if order > m:
            continue
        best = max(best, float(np.max(np.abs(arr) / zn ** (zeta - order))))
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


def _spacetime_convolve(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    full = time_convolve(np.fft.fft(a, axis=1), np.fft.fft(b, axis=1))
    return grid.eps**3 * np.fft.ifft(full, axis=1).real


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
    conv = _spacetime_convolve(k1.values, k2.values, k1.grid)
    embedded = np.zeros_like(conv)
    embedded[: k2.values.shape[0]] = k2.values
    vals = conv - kernel_mass(k1) * embedded
    return DiscreteKernel(values=vals, grid=k1.grid, claimed_order=z1 + z2 + SPACE_TIME_DIM)


def increment_bound_probe(k: DiscreteKernel, kappa: float) -> float:
    """Empirical sup of |K(z) - K(zbar)| / (|z-zbar|^kappa (|z|^(z-k) + |zbar|^(z-k))).

    Sampled over PROBE_PAIRS seeded random grid pairs; kappa = 0 collapses to the
    triangle-inequality consequence of the order norm.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    grid = k.grid
    nt, M = k.values.shape
    gen = rng_for(PROBE_SEED, 90)
    zeta = k.claimed_order
    zn = _znorm_eps(nt, grid)
    i1 = gen.integers(0, nt, PROBE_PAIRS)
    j1 = gen.integers(0, M, PROBE_PAIRS)
    i2 = gen.integers(0, nt, PROBE_PAIRS)
    j2 = gen.integers(0, M, PROBE_PAIRS)
    same = (i1 == i2) & (j1 == j2)
    i2[same] = (i2[same] + 1) % nt
    num = np.abs(k.values[i1, j1] - k.values[i2, j2])
    dt_gap = np.abs(i1 - i2) * grid.dt
    dx_gap = np.abs(signed_torus_coordinate(M, grid.eps)[(j1 - j2) % M])
    sep = np.maximum(np.maximum(np.sqrt(dt_gap), dx_gap), grid.eps)
    denom = sep**kappa * (zn[i1, j1] ** (zeta - kappa) + zn[i2, j2] ** (zeta - kappa))
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
    dxk = np.fft.ifft(np.fft.fft(K, axis=1) * derivative_multiplier(fam, grid.eps, grid.M), axis=1).real
    sq = DiscreteKernel(dxk**2, grid, -3.5)
    ident = renormalized_convolve(sq, kern)
    rows, M = ident.values.shape
    nk = K.shape[0]  # |DxK|^2 has K's rows too
    gen = rng_for(PROBE_SEED, 91)
    points = [(0, 0), (0, M - 1), (rows - 1, 0), (rows - 1, M - 1)]
    points += zip(gen.integers(0, rows, CHECK_POINTS).tolist(), gen.integers(0, M, CHECK_POINTS).tolist())
    gap = 0.0
    for n, x in points:
        # w = (s, y) with K(z - w) inside K's rows: nk > n - s >= 0
        s = np.arange(max(0, n - nk + 1), min(n, nk - 1) + 1)
        shifted = np.zeros_like(K)
        shifted[s] = K[n - s][:, (x - np.arange(M)) % M]
        kz = K[n, x] if n < nk else 0.0
        direct = grid.eps**3 * np.sum(sq.values * (shifted - kz))
        gap = max(gap, abs(direct - ident.values[n, x]))
    return kern, ident, gap / float(np.max(np.abs(ident.values)))
