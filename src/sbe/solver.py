"""Forward explicit scheme for the discrete stochastic Burgers equation.

One step advances u by eps^2 times (discrete Laplacian + derivative of the
twisted square + drift coefficient times the derivative + derivative of the
noise). Every right-hand-side term is mean-free, so the spatial mean of the
solution is an exact invariant of the scheme. Blow-up past the overflow
threshold truncates the trajectory with a flag rather than raising, since
the convergence statement only holds up to a stopping time. The coupled
dyadic self-convergence study steps all replicas and levels together.

A step is prepared once per level (``_Step``): the family's terms for the
operators' blocked engine, the drift, and buffers for a block of replica
rows. ``run`` and the study hold one for the whole run; ``step_forward``
is a one-step use of it. ``run`` reads its noise a block of rows at a
time, sliced from an explicit field or drawn from a streamed one's stream,
as the study draws its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, NoiseField, block_average, coarsen_slice, noise_block, noise_stream, rng_for
from .norms import _check_scale_list, comparison_sup, comparison_terms, make_test_family
from .operators import OperatorFamily, _accumulate, _block_rows, _blocks, _check_wrap, _reach, _terms, _Wrapped
from .renorm import c21

__all__ = [
    "SchemeConfig",
    "Trajectory",
    "step_forward",
    "run",
    "drift_coefficient",
    "ic_zero",
    "ic_constant",
    "ic_white_noise",
    "coupled_convergence_study",
    "ConvergenceStudy",
    "BLOWUP_THRESHOLD",
    "ESCAPE_GUARD",
    "MIN_CLEAN_TIMES",
]

BLOWUP_THRESHOLD = 1e8
# comparison times need every level within this sup norm (escape transient trim)
ESCAPE_GUARD = 100.0
# a replica enters the convergence statistics with at least this many clean times
MIN_CLEAN_TIMES = 3


def _escaped(u: np.ndarray):
    """Per row: sup norm past BLOWUP_THRESHOLD, or not a number."""
    return ~(np.abs(u).max(axis=-1) <= BLOWUP_THRESHOLD)


def drift_coefficient(fam: OperatorFamily, mode: str = "renormalized") -> float:
    """Drift modes: none -> 0, renormalized -> -4*c21."""
    if mode == "none":
        return 0.0
    if mode == "renormalized":
        return -4.0 * c21(fam, method="quadrature")
    raise ValueError(f"unknown drift mode {mode!r}")


@dataclass(frozen=True)
class SchemeConfig:
    fam: OperatorFamily
    grid: GridSpec
    b_drift: float = 0.0
    record_stride: int = 1

    def __post_init__(self):
        if not np.isfinite(self.b_drift):
            raise ValueError("drift coefficient must be finite")
        if self.record_stride < 1:
            raise ValueError("record stride must be >= 1")


@dataclass
class Trajectory:
    snapshots: list  # (t, slice) with strictly increasing multiples of eps^2
    blowup: bool = False
    blowup_time: float | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.snapshots])

    def values(self) -> np.ndarray:
        return np.stack([u for _, u in self.snapshots])


class _Step:
    """The scheme's step for one config, prepared once and applied as often as needed.

    It holds the engine terms of mu, nu and pi, the drift and buffers for up
    to ``rows`` state rows (one block of the engine). A call takes a state
    (..., M) and a noise slice of the same shape and returns a new array,
    which no later call writes to. States with fewer rows use the leading
    rows of the buffers; states with more are stepped a block at a time.
    Every value is computed as ``u + dt * (lap u + der(B(u, u) + b u + xi))``
    with each operator summed from zero in atom order.
    """

    def __init__(self, cfg: SchemeConfig, rows: int = 1):
        fam, grid = cfg.fam, cfg.grid
        self.N, self.M = grid.N, grid.M
        for measure in (fam.mu, fam.nu, fam.pi):
            _check_wrap(measure.radius, self.M)
        self.product = _terms(fam.mu.atoms, bilinear=True)
        self.lap = _terms(fam.nu.atoms)
        self.der = _terms(fam.pi.atoms)
        # 0-d arrays, like the weights in _terms
        self.lap_coeff = np.array(1.0 / (2.0 * fam.nu_bar * grid.eps**2))
        self.der_coeff = np.array(1.0 / grid.eps)
        self.b_drift, self.dt = np.array(cfg.b_drift, dtype=np.float64), np.array(grid.dt)
        r = max(_reach(self.product), _reach(self.lap), _reach(self.der))
        self.rows = max(1, min(rows, _block_rows(self.M, r)))
        # one padded layout for all: the state, read by B and lap, and the
        # transported field B(u, u) + b u + xi, read by der
        self.u = _Wrapped(self.rows, self.M, r)
        self.t = _Wrapped(self.rows, self.M, r)
        self.scratch = np.empty((4, self.u.size))
        self._use(self.rows)

    def _use(self, n: int) -> None:
        self.u.use(n)
        self.t.use(n)
        self.lap_out, self.der_out, self.acc, self.tmp = self.scratch[:, : self.u.size]
        self.lap_core = self.u.core(self.lap_out)

    def __call__(self, u: np.ndarray, xi_slice: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        xi_slice = np.asarray(xi_slice, dtype=np.float64)
        if u.shape[-1:] != (self.M,):
            raise ValueError(f"state has shape {u.shape}; level N={self.N} needs (..., {self.M})")
        if xi_slice.shape != u.shape:
            raise ValueError(f"noise slice has shape {xi_slice.shape}; the state has shape {u.shape}")
        rows, noise = u.reshape(-1, self.M), xi_slice.reshape(-1, self.M)
        out = np.empty(rows.shape)
        for a in range(0, rows.shape[0], self.rows):
            n = min(self.rows, rows.shape[0] - a)
            if n != self.u.n:
                self._use(n)
            self._block(rows[a : a + n], noise[a : a + n], out[a : a + n])
        return out.reshape(u.shape)

    def _block(self, u: np.ndarray, xi: np.ndarray, out: np.ndarray) -> None:
        w, t, lap, der, acc, tmp = self.u, self.t, self.lap_out, self.der_out, self.acc, self.tmp
        w.load(u)
        transported = t.at(0)
        _accumulate(transported, self.product, w, w, acc, tmp)
        np.multiply(self.b_drift, w.at(0), out=tmp)
        np.add(transported, tmp, out=transported)
        np.add(t.center, xi, out=t.center)
        t.wrap()
        _accumulate(lap, self.lap, w, None, acc, tmp)
        np.multiply(self.lap_coeff, lap, out=lap)
        _accumulate(der, self.der, t, None, acc, tmp)
        np.multiply(self.der_coeff, der, out=der)
        np.add(lap, der, out=lap)
        np.multiply(self.dt, lap, out=lap)
        np.add(u, self.lap_core, out=out)


def step_forward(cfg: SchemeConfig, u: np.ndarray, xi_slice: np.ndarray) -> np.ndarray:
    """One explicit step; all increment terms are mean-free.

    u is one slice (M,) or a batch (..., M); xi_slice must have u's shape.
    """
    u = np.asarray(u, dtype=np.float64)
    return _Step(cfg, rows=int(np.prod(u.shape[:-1])))(u, xi_slice)


def _noise_blocks(noise: NoiseField, n_steps: int):
    """The first n_steps rows of noise, one block of about _BLOCK_BYTES of rows at a time.

    An explicit field yields slices of its values; a streamed one draws each
    block from its stream as it is read, which gives the same rows bit for
    bit (``noise_block``), so a run that stops early draws no more.
    """
    gen = noise_stream(noise.seed) if noise.streamed else None
    for rows in _blocks(n_steps, 8 * noise.grid.M):
        yield noise.values[rows] if gen is None else noise_block(gen, noise.grid, rows.stop - rows.start)


def run(cfg: SchemeConfig, u0: np.ndarray, noise: NoiseField, T: float) -> Trajectory:
    """Iterate the scheme, recording every stride-th slice.

    The noise is read a block of rows at a time; a streamed field
    (``NoiseField(grid, seed)``) is drawn as it is read and gives the steps
    of ``sample_noise(grid, seed)`` bit for bit, holding one block of it
    instead of the whole field. On overflow past BLOWUP_THRESHOLD (or a non-number) the trajectory is
    truncated and flagged; blow-up is data, not an error. The initial slice
    must be finite and have the grid's M sites, and T must be a nonnegative
    multiple of eps^2.
    """
    if noise.grid.N != cfg.grid.N:
        raise ValueError("noise and scheme grids disagree")
    if T < 0:
        raise ValueError(f"horizon T={T} is negative")
    n_steps = GridSpec(cfg.grid.N, T).n_steps  # raises unless T is a multiple of dt
    if n_steps > noise.grid.n_steps:
        raise ValueError("horizon exceeds the noise horizon")
    u = np.array(u0, dtype=np.float64)
    if u.shape != (cfg.grid.M,):
        raise ValueError(f"u0 has shape {u.shape}; level N={cfg.grid.N} needs ({cfg.grid.M},)")
    if not np.all(np.isfinite(u)):
        raise ValueError("u0 has non-finite entries")
    snaps = [(0.0, u)]
    traj = Trajectory(snapshots=snaps)
    step = _Step(cfg)
    rows = (xi for block in _noise_blocks(noise, n_steps) for xi in block)
    for n, xi in enumerate(rows):
        u = step(u, xi)
        if _escaped(u):
            traj.blowup = True
            traj.blowup_time = (n + 1) * cfg.grid.dt
            break
        if (n + 1) % cfg.record_stride == 0 or n + 1 == n_steps:
            snaps.append(((n + 1) * cfg.grid.dt, u))
    return traj


def ic_zero(grid: GridSpec) -> np.ndarray:
    return np.zeros(grid.M)


def ic_constant(grid: GridSpec, c: float) -> np.ndarray:
    return np.full(grid.M, float(c))


def ic_white_noise(grid: GridSpec, seed: int) -> np.ndarray:
    """Spatial white noise with variance eps^-1 (the rough admissible class)."""
    gen = rng_for(seed, 1)
    return gen.standard_normal(grid.M) * grid.eps ** (-0.5)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Outcome of ``coupled_convergence_study``; unpacks as (per_pair, rows).

    per_pair maps "a->b" to the replicas' comparison norms in replica
    order, rows holds (replica, pair, value), dropped lists the replicas
    with fewer than MIN_CLEAN_TIMES clean common times, and escape_times
    gives each replica's earliest escape time over all levels (None if it
    never escaped).
    """

    per_pair: dict
    rows: list
    dropped: list
    escape_times: list

    def __iter__(self):
        return iter((self.per_pair, self.rows))


def coupled_convergence_study(
    fam: OperatorFamily,
    levels,
    T: float,
    replicas: int,
    seed: int,
    alpha: float = -0.6,
    eta: float = -0.6,
    b_drift: float = 0.0,
) -> ConvergenceStudy:
    """Coupled-noise solves at consecutive dyadic levels and pairwise comparison norms.

    Replica r's noise is its stream ``noise_stream(seed + r)`` at the finest
    level, drawn one coarse time step (4^(Nmax - Nmin) fine rows) at a time
    and block-averaged down to every coarser level. Every level starts from
    the replica's white noise ``ic_white_noise(fine, seed + r)``, pairwise
    averaged down. All replicas and levels step in lockstep, in time order.

    A replica leaves the batch at the first step where any level escapes
    (sup norm past BLOWUP_THRESHOLD, or not a number), since no later time is common to all
    levels; its remaining noise is never drawn. At each coarse time the
    replicas whose levels all lie within ESCAPE_GUARD update their running
    comparison-norm maxima (one scale set for every pair, so levels are
    measured with the same yardstick). Replicas with fewer than
    MIN_CLEAN_TIMES such times are dropped from the statistics.

    Memory is O(replicas * M) at the finest level, independent of T.
    """
    levels = sorted(levels)
    if levels != list(range(levels[0], levels[-1] + 1)):
        raise ValueError(f"levels {levels} are not consecutive")
    grids = [GridSpec(n, T) for n in levels]
    coarse = grids[0]
    tf = make_test_family(coarse, lambda_min=coarse.eps, lambda_max=0.5)
    _check_scale_list(tf, alpha)  # before any step: a run may end with no replica left to check
    steps = [_Step(SchemeConfig(fam=fam, grid=g, b_drift=b_drift), rows=replicas) for g in grids]
    fine_rows = 4 ** (levels[-1] - levels[0])  # fine steps per coarse step
    every = [4 ** (levels[-1] - n) for n in levels]  # fine steps per own step

    gens = [noise_stream(seed + r) for r in range(replicas)]
    u = [np.stack([ic_white_noise(grids[-1], seed + r) for r in range(replicas)])]
    for _ in levels[:-1]:
        u.insert(0, coarsen_slice(u[0]))
    alive = np.arange(replicas)
    sups = np.zeros((len(levels) - 1, len(tf.scales), replicas))
    clean = np.zeros(replicas, dtype=int)
    escape_times: list = [None] * replicas

    for k in range(coarse.n_steps):
        if alive.size == 0:
            break
        xi = [np.stack([noise_block(gens[r], grids[-1], fine_rows) for r in alive])]
        for _ in levels[:-1]:
            xi.insert(0, block_average(xi[0]))
        for j in range(1, fine_rows + 1):
            bad = np.zeros(alive.size, dtype=bool)
            for i, stride in enumerate(every):
                if j % stride == 0:
                    u[i] = steps[i](u[i], xi[i][:, j // stride - 1])
                    bad |= _escaped(u[i])
            if bad.any():
                t = (k * fine_rows + j) * grids[-1].dt
                for r in alive[bad]:
                    escape_times[r] = t
                keep = ~bad
                alive = alive[keep]
                u = [v[keep] for v in u]
                xi = [x[keep] for x in xi]
        inside = np.ones(alive.size, dtype=bool)
        for v in u:
            inside &= np.abs(v).max(axis=-1) <= ESCAPE_GUARD
        if not inside.any():
            continue
        ids = alive[inside]
        clean[ids] += 1
        # rounded like the record keys of the per-replica study, so the time
        # weights (and the norms) stay bit for bit the same
        times = np.full(ids.size, round((k + 1) * coarse.dt, 12))
        terms = comparison_terms([v[inside] for v in u], grids, times, eta, tf)
        sups[:, :, ids] = np.maximum(sups[:, :, ids], terms)

    names = [f"{a}->{b}" for a, b in zip(levels[:-1], levels[1:])]
    per_pair: dict[str, list[float]] = {name: [] for name in names}
    rows = []
    dropped = []
    for r in range(replicas):
        if clean[r] < MIN_CLEAN_TIMES:
            dropped.append(r)
            continue
        for p, name in enumerate(names):
            val = comparison_sup(sups[p][:, r : r + 1], tf, alpha)
            per_pair[name].append(val)
            rows.append((r, name, val))
    return ConvergenceStudy(per_pair=per_pair, rows=rows, dropped=dropped, escape_times=escape_times)
