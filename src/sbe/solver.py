"""Forward explicit scheme for the discrete stochastic Burgers equation.

One step advances u by eps^2 times (discrete Laplacian + derivative of the
twisted square + drift coefficient times the derivative + derivative of the
noise). Every right-hand-side term is mean-free, so the spatial mean of the
solution is an exact invariant of the scheme. Blow-up past the overflow
threshold truncates the trajectory with a flag rather than raising, since
the convergence statement only holds up to a stopping time. The coupled
dyadic self-convergence study steps all replicas and levels together.

A step is prepared once per level (``_Step``): the family's terms for the
operators' blocked engine, the drift, and the replicas' states, held in
padded buffers of at most one engine block of rows and advanced in place.
Each block's whole step is bound once, when the blocks are made, as the
ufunc calls of the engine's programs and of the step, and replayed every
step; only the noise add reads the step's noise row.
``run`` and the study hold one for the whole run; ``step_forward`` is a
one-step use of it. ``run`` and the study read their noise with
``NoiseField.blocks``, which slices an explicit field and draws a streamed
one a block at a time, and write each block once into the step's padded
noise buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, NoiseField, block_average, coarsen_slice, rng_for
from .norms import _check_scale_list, comparison_sup, comparison_terms, make_test_family
from .operators import _BLOCK_BYTES, OperatorFamily, _block_rows, _program, _reach, _run, _terms, _Wrapped, check_wrap
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
    "consecutive_levels",
    "study_family",
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
    """The scheme's step for one config, holding the replicas' states and advancing them in place.

    It holds the engine terms of mu, nu and pi, the drift, and the states
    (rows, M) in blocks of at most one engine block of rows, each block in
    its own padded buffer (``_Wrapped``), so every add runs flat over the
    padded rows. ``noise_rows(steps)`` gives the sites of a padded noise
    buffer with zero ghost sites, (steps, rows, M), reused from one noise
    block to the next; ``advance(s)`` steps every state with noise row s,
    and ``keep`` compacts the rows that stay. Every value is computed as
    ``u + dt * (lap u + der(B(u, u) + b u + xi))``, with each operator
    summed in atom order to a zero start's bits and the drift term left out
    when b is 0, so a held step gives the bits of the ``np.roll`` spelling.

    Each block's whole step is bound once, when the blocks are made: the
    engine's calls (``_program``) and the step's own, with their views and
    positional outputs, split at the noise add, the one call that reads
    row s. ``advance`` replays them.
    """

    def __init__(self, cfg: SchemeConfig, u: np.ndarray):
        fam, grid = cfg.fam, cfg.grid
        self.N, self.M = grid.N, grid.M
        for measure in (fam.mu, fam.nu, fam.pi):
            check_wrap(measure.radius, self.M)
        u = np.asarray(u, dtype=np.float64)
        if u.ndim != 2 or u.shape[1] != self.M:
            raise ValueError(f"state has shape {u.shape}; level N={self.N} needs (rows, {self.M})")
        self.product = _terms(fam.mu.atoms, bilinear=True)
        self.lap = _terms(fam.nu.atoms)
        self.der = _terms(fam.pi.atoms)
        # 0-d arrays, like the weights in _terms
        self.lap_coeff = np.array(1.0 / (2.0 * fam.nu_bar * grid.eps**2))
        self.der_coeff = np.array(1.0 / grid.eps)
        self.b_drift, self.dt = np.array(cfg.b_drift, dtype=np.float64), np.array(grid.dt)
        self.r = max(_reach(self.product), _reach(self.lap), _reach(self.der))
        self.W = self.M + 2 * self.r
        self.block_rows = _block_rows(self.M, self.r)
        # the transported field B(u, u) + b u + xi, read by der, and the
        # engine's scratch, shared by the blocks
        self.t = _Wrapped(min(self.block_rows, len(u)), self.M, self.r)
        self.scratch = np.empty((4, self.t.size))
        self._noise = np.zeros(0)
        self._hold(u)
        self.noise_rows(0)  # no noise rows until the caller writes some

    def _hold(self, u: np.ndarray) -> None:
        """Hold the states u (rows, M) in fresh blocks, no more rows than the first held, and bind their steps."""
        self.n = len(u)
        self.blocks, self.spans, self.programs, self.sups = [], [], [], []
        for a in range(0, max(self.n, 1), self.block_rows):
            block = _Wrapped(min(self.block_rows, self.n - a), self.M, self.r)
            block.load(u[a : a + block.n])
            self.blocks.append(block)
            self.spans.append(slice(a, a + block.n))
            self.programs.append(self._bind(block))
            if block.n:  # |u| over the padded rows, into the scratch row that tmp uses
                self.sups.append((self.spans[-1], block.center, block.at(0), self.scratch[3, : block.size]))

    def _bind(self, w: _Wrapped) -> tuple:
        """Block w's step: (the calls before the noise add, the field it adds to, the calls after it)."""
        t = self.t
        t.use(w.n)
        lap, der, acc, tmp = self.scratch[:, : w.size]
        transported, u = t.at(0), w.at(0)
        before = _program(transported, self.product, w, w, acc, tmp)
        if self.b_drift:
            before += [(np.multiply, (self.b_drift, u, tmp)), (np.add, (transported, tmp, transported))]
        after = [
            *t.wrapping,
            *_program(lap, self.lap, w, None, acc, tmp),
            (np.multiply, (self.lap_coeff, lap, lap)),
            *_program(der, self.der, t, None, acc, tmp),
            (np.multiply, (self.der_coeff, der, der)),
            (np.add, (lap, der, lap)),
            (np.multiply, (self.dt, lap, lap)),
            (np.add, (u, lap, u)),
            *w.wrapping,
        ]
        return before, transported, after

    def states(self) -> np.ndarray:
        """A copy of the states, (rows, M)."""
        return np.concatenate([block.center for block in self.blocks])

    def noise_rows(self, steps: int) -> np.ndarray:
        """The sites (steps, rows, M) of the padded noise that ``advance(s)`` reads at row s; write them before stepping."""
        size = steps * self.n * self.W
        if self._noise.size < size:
            self._noise = np.zeros(size)
        self.xi = self._noise[:size].reshape(steps, self.n * self.W)
        # each block's columns of the noise rows, for its noise add
        self.noise = [self.xi[:, span.start * self.W : span.stop * self.W] for span in self.spans]
        return self.xi.reshape(steps, self.n, self.W)[..., self.r : self.r + self.M]

    def keep(self, rows: np.ndarray) -> None:
        """Keep the states and noise rows that ``rows`` (a boolean mask) selects, in order."""
        old = self.xi.reshape(len(self.xi), self.n, self.W)
        self._hold(self.states()[rows])
        self.noise_rows(len(old))
        new = self.xi.reshape(len(old), self.n, self.W)
        # in place, a noise row at a time: row s moves to a lower offset,
        # below every row still to move, and no block-sized copy is made
        for s in range(len(old)):
            new[s] = old[s][rows]

    def advance(self, s: int) -> np.ndarray | None:
        """Step every state with noise row s; the rows that escaped, as ``escaped`` gives them."""
        for (before, transported, after), xi in zip(self.programs, self.noise):
            _run(before)
            np.add(transported, xi[s], transported)
            _run(after)
        return self.escaped()

    def escaped(self) -> np.ndarray | None:
        """The rows whose sup norm is past BLOWUP_THRESHOLD, or not a number, as a mask; None if there are none.

        The test is one reduction of |u| over each block's padded rows,
        whose ghost sites copy their own row's sites; only a block where it
        is not <= BLOWUP_THRESHOLD is tested row by row (``_escaped``).
        ``np.maximum.reduce`` is what ``ndarray.max`` calls: a NaN gives NaN.
        """
        out = None
        for span, center, u, magnitude in self.sups:
            np.absolute(u, magnitude)
            if not np.maximum.reduce(magnitude) <= BLOWUP_THRESHOLD:
                if out is None:
                    out = np.zeros(self.n, dtype=bool)
                out[span] = _escaped(center)
        return out


def step_forward(cfg: SchemeConfig, u: np.ndarray, xi_slice: np.ndarray) -> np.ndarray:
    """One explicit step; all increment terms are mean-free.

    u is one slice (M,) or a batch (..., M); xi_slice must have u's shape.
    """
    u = np.asarray(u, dtype=np.float64)
    xi_slice = np.asarray(xi_slice, dtype=np.float64)
    M = cfg.grid.M
    if u.shape[-1:] != (M,):
        raise ValueError(f"state has shape {u.shape}; level N={cfg.grid.N} needs (..., {M})")
    if xi_slice.shape != u.shape:
        raise ValueError(f"noise slice has shape {xi_slice.shape}; the state has shape {u.shape}")
    step = _Step(cfg, u.reshape(-1, M))
    np.copyto(step.noise_rows(1)[0], xi_slice.reshape(-1, M))
    step.advance(0)
    return step.states().reshape(u.shape)


def run(cfg: SchemeConfig, u0: np.ndarray, noise: NoiseField, T: float) -> Trajectory:
    """Iterate the scheme, recording every stride-th slice.

    The noise is read a block of about _BLOCK_BYTES of rows at a time; a
    streamed field (``NoiseField(grid, seed)``) is drawn as it is read and
    gives the steps of ``sample_noise(grid, seed)`` bit for bit, holding one
    block of it instead of the whole field and drawing none past a blow-up.
    On overflow past BLOWUP_THRESHOLD (or a non-number) the trajectory is
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
    step = _Step(cfg, u[None])
    blocks = noise.blocks(max(1, _BLOCK_BYTES // (8 * cfg.grid.M)))
    n = 0
    while n < n_steps:
        block = next(blocks)[: n_steps - n]
        np.copyto(step.noise_rows(len(block))[:, 0], block)
        for s in range(len(block)):
            n += 1
            if step.advance(s) is not None:
                traj.blowup = True
                traj.blowup_time = n * cfg.grid.dt
                return traj
            if n % cfg.record_stride == 0 or n == n_steps:
                snaps.append((n * cfg.grid.dt, step.states()[0]))
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
    """Outcome of ``coupled_convergence_study``.

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


def consecutive_levels(levels, least: int = 2) -> list[int]:
    """levels in increasing order; ValueError unless they are ``least`` or more distinct consecutive levels."""
    levels = sorted(levels)
    if len(levels) < least or levels != list(range(levels[0], levels[0] + len(levels))):
        raise ValueError(f"the study needs {least} or more distinct consecutive levels, got {levels}")
    return levels


def study_family(coarse: GridSpec):
    """The test functions of the study's comparison norms, at least two scales."""
    return make_test_family(coarse, lambda_min=coarse.eps, lambda_max=0.5)


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
    """Coupled-noise solves at two or more consecutive dyadic levels and pairwise comparison norms.

    Replica r's noise is the streamed field ``NoiseField(fine, seed + r)``
    at the finest level, read one coarse time step (4^(Nmax - Nmin) fine
    rows) at a time and block-averaged down to every coarser level. Every level starts from
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
    if replicas < 1:
        raise ValueError(f"replicas: expected >= 1, got {replicas}")
    levels = consecutive_levels(levels)
    grids = [GridSpec(n, T) for n in levels]
    coarse = grids[0]
    tf = study_family(coarse)
    _check_scale_list(tf, alpha)  # before any step: a run may end with no replica left to check
    fine_rows = 4 ** (levels[-1] - levels[0])  # fine steps per coarse step
    every = [4 ** (levels[-1] - n) for n in levels]  # fine steps per own step

    blocks = [NoiseField(grids[-1], seed + r).blocks(fine_rows) for r in range(replicas)]
    u = [np.stack([ic_white_noise(grids[-1], seed + r) for r in range(replicas)])]
    for _ in levels[:-1]:
        u.insert(0, coarsen_slice(u[0]))
    steps = [_Step(SchemeConfig(fam=fam, grid=g, b_drift=b_drift), v) for g, v in zip(grids, u)]
    alive = np.arange(replicas)
    sups = np.zeros((len(levels) - 1, len(tf.scales), replicas))
    clean = np.zeros(replicas, dtype=int)
    escape_times: list = [None] * replicas

    for k in range(coarse.n_steps):
        if alive.size == 0:
            break
        # each level's noise block goes once into its step's padded noise
        # buffer, read as (replica, time, site) by block_average
        fine = steps[-1].noise_rows(fine_rows)
        for a, r in enumerate(alive):
            fine[:, a] = next(blocks[r])
        xi = fine.transpose(1, 0, 2)
        for step in reversed(steps[:-1]):
            xi = block_average(xi)
            np.copyto(step.noise_rows(xi.shape[1]), xi.transpose(1, 0, 2))
        for j in range(1, fine_rows + 1):
            bad = None
            for step, stride in zip(steps, every):
                if j % stride == 0:
                    escaped = step.advance(j // stride - 1)
                    if escaped is not None:
                        bad = escaped if bad is None else bad | escaped
            if bad is not None:
                t = (k * fine_rows + j) * grids[-1].dt
                for r in alive[bad]:
                    escape_times[r] = t
                keep = ~bad
                alive = alive[keep]
                for step in steps:
                    step.keep(keep)
        u = [step.states() for step in steps]
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
