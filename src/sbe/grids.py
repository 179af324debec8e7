"""Dyadic space-time grids on the unit torus and the coupled noise layer.

The grid at level N has eps = 2^-N, M = 2^N spatial sites on the unit torus
and time step eps^2. Noise is i.i.d. centered Gaussian with variance eps^-3
per space-time cell; the field one level coarser is obtained exactly by
averaging the 4 x 2 block of fine cells covering each coarse parabolic box,
which realizes the box-average definition of the discrete noise and couples
all dyadic resolutions to one underlying realization. A noise field is
explicit, holding its values, or streamed, drawn from its seed's stream as
it is read; ``NoiseField.blocks`` reads either a block of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "NoiseField",
    "LatticeField",
    "sample_noise",
    "block_average",
    "coarsen_slice",
    "rng_for",
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


@dataclass(frozen=True, init=False, eq=False)
class NoiseField:
    """Seeded space-time white noise, variance eps^-3, time-major layout.

    An explicit field holds values[n, i], the draw at time n*eps^2, site
    i*eps; they must be finite float64, or the field is refused with the
    first non-finite (row, site) named. A streamed one, made without values, holds none: its rows are
    those of sample_noise(grid, seed), drawn from the seed's stream as
    ``blocks`` reads them. Reading ``values`` of a streamed field is a
    ValueError. Fields are equal when their grids, seeds and the bytes of
    their values are (two streamed fields have no values), and hash by
    grid and seed.
    """

    grid: GridSpec
    seed: int
    _values: np.ndarray | None

    def __init__(self, grid: GridSpec, seed: int, values: np.ndarray | None = None):
        if values is not None:
            if values.shape != (grid.n_steps, grid.M):
                raise ValueError("noise shape inconsistent with grid")
            if values.dtype != np.float64:
                raise ValueError(f"noise values must be float64, not {values.dtype}")
            finite = np.isfinite(values)
            if not finite.all():
                row, site = np.unravel_index(np.argmin(finite), values.shape)
                raise ValueError(f"noise values must be finite; row {row}, site {site} holds {values[row, site]}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "_values", values)

    def __eq__(self, other):
        if not isinstance(other, NoiseField):
            return NotImplemented
        a, b = self._values, other._values
        if (self.grid, self.seed) != (other.grid, other.seed) or (a is None) != (b is None):
            return False
        return a is None or np.array_equal(a.view(np.int64), b.view(np.int64))

    def __hash__(self):
        return hash((self.grid, self.seed))

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            raise ValueError(
                f"streamed noise field (seed {self.seed}, N={self.grid.N}) holds no values; draw them with sample_noise"
            )
        return self._values

    def blocks(self, step: int):
        """The rows in order, ``step`` at a time (the last block may be shorter).

        An explicit field yields views of its values; a streamed one draws
        each block from its stream as it is read, the same bits in any
        blocking, so a reader that stops early draws no more. There is
        always at least one block, empty when there is no time step. A
        ``step`` below 1 is refused when this is called.
        """
        if step < 1:
            raise ValueError(f"step: expected >= 1 rows per block, got {step}")
        return self._blocks(step)

    def _blocks(self, step: int):
        nt = self.grid.n_steps
        gen = _noise_stream(self.seed) if self._values is None else None
        for start in range(0, max(nt, 1), step):
            rows = min(step, nt - start)
            yield self._values[start : start + rows] if gen is None else _noise_block(gen, self.grid, rows)


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


def _noise_stream(seed: int) -> np.random.Generator:
    """The generator behind replica ``seed``'s space-time noise: stream (seed, 0)."""
    return rng_for(seed, 0)


def _noise_block(gen: np.random.Generator, grid: GridSpec, rows: int) -> np.ndarray:
    """The next ``rows`` time rows of a noise stream, N(0, eps^-3) per cell, scaled in place."""
    xi = gen.standard_normal((rows, grid.M))
    np.multiply(xi, grid.eps ** (-1.5), out=xi)
    return xi


def sample_noise(grid: GridSpec, seed: int) -> NoiseField:
    """i.i.d. N(0, eps^-3) at every space-time cell, deterministic in seed."""
    return NoiseField(grid=grid, seed=seed, values=_noise_block(_noise_stream(seed), grid, grid.n_steps))


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
