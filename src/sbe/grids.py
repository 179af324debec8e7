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

from .operators import _blocks, _stencil

__all__ = [
    "GridSpec",
    "NoiseField",
    "LatticeField",
    "sample_noise",
    "noise_stream",
    "noise_block",
    "block_average",
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


def rng_for(seed: int, *stream) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream...).

    Philox is jump-ahead capable and the SeedSequence expansion is stable,
    so replicas and derived streams are reproducible independent of
    iteration order.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream))))


@dataclass(frozen=True, init=False)
class NoiseField:
    """Seeded space-time white noise, variance eps^-3, time-major layout.

    An explicit field holds values[n, i], the draw at time n*eps^2, site
    i*eps. A streamed one, made without values, holds none: its rows are
    those of sample_noise(grid, seed), which ``solver.run`` draws from
    noise_stream(seed) a block at a time as it reads them. Reading
    ``values`` of a streamed field is a ValueError.
    """

    grid: GridSpec
    seed: int
    _values: np.ndarray | None

    def __init__(self, grid: GridSpec, seed: int, values: np.ndarray | None = None):
        if values is not None and values.shape != (grid.n_steps, grid.M):
            raise ValueError("noise shape inconsistent with grid")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "_values", values)

    @property
    def streamed(self) -> bool:
        return self._values is None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            raise ValueError(
                f"streamed noise field (seed {self.seed}, N={self.grid.N}) holds no values; draw them with sample_noise"
            )
        return self._values


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


def bump(r: np.ndarray) -> np.ndarray:
    """Smooth bump exp(-1/(1-r^2)) on |r| < 1, zero outside (unnormalized)."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


def _mollifier_kernel(rt: int, rs: int) -> tuple[np.ndarray, np.ndarray]:
    """The time and space factors of the tensor-product bump sampled on grid cells, each of unit sum.

    Each direction rescales the bump by radius + 1, where it first vanishes,
    so radius 0 is the one weight 1.
    """
    wt = bump(np.arange(-rt, rt + 1) / (rt + 1.0))
    wx = bump(np.arange(-rs, rs + 1) / (rs + 1.0))
    return wt / wt.sum(), wx / wx.sum()


def mollify(values: np.ndarray, grid: GridSpec, radius_cells_time: int, radius_cells_space: int) -> np.ndarray:
    """Space-time convolution of a time-major (rows, M) field with the bump of unit discrete mass.

    The bump is the tensor product of ``_mollifier_kernel``'s factors, so one
    pass of the operators' stencil engine convolves in space, around the
    torus, and 2 rt + 1 row-shifted multiply-adds a block of rows at a time
    in time, zero-padded outside the rows. Radii (0, 0) return the input.
    """
    rt, rs = int(radius_cells_time), int(radius_cells_space)
    if rt < 0 or rs < 0:
        raise ValueError("radii must be nonnegative")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != grid.M:
        raise ValueError(f"mollify needs a time-major (rows, M) field with M = {grid.M}, not shape {values.shape}")
    if 2 * rs + 1 > grid.M:
        raise ValueError("mollifier support exceeds the torus")
    wt, wx = _mollifier_kernel(rt, rs)
    space = _stencil(tuple(zip(range(-rs, rs + 1), wx)), values)
    nt = space.shape[0]
    out = np.zeros_like(space)
    blocks = _blocks(nt, 8 * grid.M)
    tmp = np.empty((blocks[0].stop if blocks else 0, grid.M))
    for rows in blocks:
        for a, w in zip(range(-rt, rt + 1), wt):
            # output row n reads row n + a, zero past the ends
            lo, hi = max(rows.start, -a), min(rows.stop, nt - a)
            if lo < hi:
                np.multiply(w, space[lo + a : hi + a], out=tmp[: hi - lo])
                out[lo:hi] += tmp[: hi - lo]
    return out
