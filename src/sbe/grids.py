"""Dyadic space-time grids on the unit torus and the coupled noise layer.

The grid at level N has eps = 2^-N, M = 2^N spatial sites on the unit torus
and time step eps^2. Noise is i.i.d. centered Gaussian with variance eps^-3
per space-time cell; the field one level coarser is obtained exactly by
averaging the 4 x 2 block of fine cells covering each coarse parabolic box,
which realizes the box-average definition of the discrete noise and couples
all dyadic resolutions to one underlying realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "NoiseField",
    "LatticeField",
    "sample_noise",
    "noise_stream",
    "noise_block",
    "block_average",
    "coarsen_noise",
    "coarsen_slice",
    "mollify",
    "rng_for",
    "bump",
]


@dataclass(frozen=True)
class GridSpec:
    """Dyadic grid: eps = 2^-N, M = 2^N sites, dt = eps^2, horizon T."""

    N: int
    T: float

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be nonnegative")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 0:
            raise ValueError(f"T={self.T} is not a multiple of dt={self.dt}")

    @property
    def eps(self) -> float:
        return 2.0 ** (-self.N)

    @property
    def M(self) -> int:
        return 2**self.N

    @property
    def dt(self) -> float:
        return self.eps**2

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.M) * self.eps

    def coarsen(self) -> "GridSpec":
        if self.N == 0:
            raise ValueError("cannot coarsen below N=0")
        return GridSpec(self.N - 1, self.T)


def rng_for(seed: int, *stream) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream...).

    Philox is jump-ahead capable and the SeedSequence expansion is stable,
    so replicas and derived streams are reproducible independent of
    iteration order.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream))))


@dataclass(frozen=True)
class NoiseField:
    """Seeded space-time white noise, variance eps^-3, time-major layout.

    values[n, i] is the draw at time n*eps^2, site i*eps. Fields produced by
    coarsening keep the originating seed; together with N it identifies the
    content through the deterministic averaging pipeline.
    """

    grid: GridSpec
    seed: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.n_steps, self.grid.M):
            raise ValueError("noise shape inconsistent with grid")


@dataclass(frozen=True)
class LatticeField:
    """Real field on the grid: one slice (M,) or time-major (n_times, M).

    ``t0_index`` is the time index of values[0] in units of eps^2.
    """

    grid: GridSpec
    values: np.ndarray
    t0_index: int = 0

    def __post_init__(self):
        if self.values.shape[-1] != self.grid.M:
            raise ValueError("field shape inconsistent with grid")

    @property
    def times(self) -> np.ndarray:
        if self.values.ndim == 1:
            return np.array([self.t0_index * self.grid.dt])
        return (self.t0_index + np.arange(self.values.shape[0])) * self.grid.dt


def noise_stream(seed: int) -> np.random.Generator:
    """The generator behind replica ``seed``'s space-time noise: stream (seed, 0)."""
    return rng_for(seed, 0)


def noise_block(gen: np.random.Generator, grid: GridSpec, rows: int) -> np.ndarray:
    """The next ``rows`` time rows of a noise stream, N(0, eps^-3) per cell.

    Drawing a field in consecutive blocks from one stream gives the same
    values, bit for bit, as drawing it at once.
    """
    return gen.standard_normal((rows, grid.M)) * grid.eps ** (-1.5)


def sample_noise(grid: GridSpec, seed: int) -> NoiseField:
    """i.i.d. N(0, eps^-3) at every space-time cell, deterministic in seed."""
    values = noise_block(noise_stream(seed), grid, grid.n_steps)
    return NoiseField(grid=grid, seed=seed, values=values)


def coarsen_slice(values: np.ndarray) -> np.ndarray:
    """Average adjacent site pairs (spatial white-noise coupling)."""
    return (values[..., 0::2] + values[..., 1::2]) * 0.5


def block_average(v: np.ndarray) -> np.ndarray:
    """Mean of each 4 (time) x 2 (space) block over the last two axes.

    Fixed summation order keeps the result bit-reproducible: the eight
    parents are added pairwise in time-major order, then scaled by 1/8.
    Leading axes (replicas) pass through.
    """
    acc = (
        ((v[..., 0::4, 0::2] + v[..., 0::4, 1::2]) + (v[..., 1::4, 0::2] + v[..., 1::4, 1::2]))
        + ((v[..., 2::4, 0::2] + v[..., 2::4, 1::2]) + (v[..., 3::4, 0::2] + v[..., 3::4, 1::2]))
    )
    return acc * 0.125


def coarsen_noise(fine: NoiseField) -> NoiseField:
    """Block-average the 4 (time) x 2 (space) fine cells per coarse box."""
    if fine.grid.N < 1:
        raise ValueError("cannot coarsen an N=0 noise field")
    if fine.grid.n_steps % 4 != 0:
        raise ValueError("horizon not divisible into coarse time steps")
    return NoiseField(grid=fine.grid.coarsen(), seed=fine.seed, values=block_average(fine.values))


def bump(r: np.ndarray) -> np.ndarray:
    """Smooth bump exp(-1/(1-r^2)) on |r| < 1, zero outside (unnormalized)."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


def _mollifier_kernel(grid: GridSpec, rt: int, rs: int) -> np.ndarray:
    """Tensor-product bump sampled on grid cells, discrete mass eps^3*sum = 1.

    Each direction rescales the bump by radius + 1, where it first vanishes.
    """
    it = np.arange(-rt, rt + 1)
    ix = np.arange(-rs, rs + 1)
    wt = bump(it / (rt + 1.0)) if rt > 0 else np.ones(1)
    wx = bump(ix / (rs + 1.0)) if rs > 0 else np.ones(1)
    w = np.outer(wt, wx)
    w /= grid.eps**3 * w.sum()
    return w


def mollify(values: np.ndarray, grid: GridSpec, radius_cells_time: int, radius_cells_space: int) -> np.ndarray:
    """eps^3-weighted space-time convolution of a time-major field with the bump.

    The weights are ``_mollifier_kernel``; space wraps around the torus and
    time is zero-padded outside the rows. Radii (0, 0) reduce to the
    identity.
    """
    rt, rs = int(radius_cells_time), int(radius_cells_space)
    if rt < 0 or rs < 0:
        raise ValueError("radii must be nonnegative")
    if 2 * rs + 1 > grid.M:
        raise ValueError("mollifier support exceeds the torus")
    w = _mollifier_kernel(grid, rt, rs)
    out = np.zeros_like(values)
    nt = values.shape[0]
    for a in range(-rt, rt + 1):
        rolled_t = np.zeros_like(values)
        if a >= 0:
            rolled_t[: nt - a] = values[a:]
        else:
            rolled_t[-a:] = values[: nt + a]
        for b in range(-rs, rs + 1):
            out += w[a + rt, b + rs] * np.roll(rolled_t, -b, axis=1)
    return grid.eps**3 * out
