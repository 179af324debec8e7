"""Discrete Hoelder-Besov norms and the regularity-exponent estimator.

Positive-regularity norms are exact increment suprema over grid pairs.
Negative-regularity norms pair the field with rescaled copies of a
polynomial bump

    phi(y) = c_r (1 - y^2)^(r+1)   on |y| < 1,  unit continuum mass,

at dyadic scales lambda in [eps, 1]; the parabolic variant rescales time by
lambda^2. Every pairing is a direct sum at the base sites read: a field's
rows times the matrix whose columns are phi_x^lambda at those sites, one
matrix per (r, level, lambda, sites), built once and shared. The Besov
norm reads every site; the level comparison reads each level at its own
sites and the finest level at the sites of the one before it.

The exponent estimator fits the log-log slope of sup-pairings of the
*band* functions phi^lambda - phi^(2 lambda) (differences of consecutive
dyadic dilates). The band family has zero mass, so the estimator resolves
positive exponents as well; with the plain bump any function-valued field
would saturate at slope 0. It reads each band at a few hundred sampled
base points only.

Its parabolic windows are fixed by the grid, the family and the number of
rows, never by the values, so a ``ParabolicPlan`` folds a field into them
as its rows stream by and holds one row of sums per (scale, time), not the
field. A parabolic pairing is dt times the space pairing of its windows'
time-weighted sums, which every window takes in tiles of rows aligned to
row 0: every chunking of the rows gives the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, LatticeField, NoiseField
from .processes import NOISE_LABEL, _block, lift_chunk_bytes, lift_chunks

__all__ = [
    "TestFunctionFamily",
    "HolderEstimate",
    "make_test_family",
    "holder_norm_space",
    "holder_norm_parabolic",
    "besov_norm_negative",
    "comparison_terms",
    "comparison_sup",
    "comparison_norm",
    "estimate_exponent",
    "ParabolicPlan",
    "regularity_families",
    "regularity_bytes",
    "regularity_table",
]

# base points per band in estimate_exponent: 2 PATCHES + 1 in space, PATCHES in time
PATCHES = 16
# continuous derivatives r of the bump profile that make_test_family builds
PROFILE_SMOOTHNESS = 4


@dataclass(frozen=True)
class TestFunctionFamily:
    """Polynomial bump with r continuous derivatives and its dyadic scales."""

    r: int
    scales: np.ndarray

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("profile smoothness r must be >= 1")
        if len(self.scales) < 2:
            raise ValueError("need at least two scales")
        # the parabolic pairings stop at the first scale past the horizon
        if not np.all(np.diff(self.scales, prepend=0.0) > 0):
            raise ValueError("scales must be positive and strictly increasing")

    def profile(self, y) -> np.ndarray:
        return _profile(self.r, y)


def _profile(r: int, y) -> np.ndarray:
    """c_r (1 - y^2)^(r+1) on |y| < 1, zero outside: a family's profile depends on r alone."""
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    c_r = math.gamma(r + 2.5) / (math.sqrt(math.pi) * math.gamma(r + 2))  # unit continuum mass
    out[inside] = c_r * (1.0 - y[inside] ** 2) ** (r + 1)
    return out


def make_test_family(grid: GridSpec, lambda_min: float | None = None, lambda_max: float = 1.0) -> TestFunctionFamily:
    """Dyadic scales eps * 2^j clipped to [lambda_min, lambda_max]."""
    lo = grid.eps if lambda_min is None else lambda_min
    scales = []
    lam = grid.eps
    while lam <= lambda_max + 1e-12:
        if lam >= lo - 1e-12:
            scales.append(lam)
        lam *= 2.0
    return TestFunctionFamily(r=PROFILE_SMOOTHNESS, scales=np.array(scales))


def _t_eps(times: np.ndarray, eps: float) -> np.ndarray:
    return np.maximum(np.minimum(np.sqrt(np.abs(times)), 1.0), eps)


def _space_kernel(r: int, grid: GridSpec, lam: float) -> np.ndarray:
    """lambda^-1 phi((. )/lambda) sampled on site offsets, torus-periodized."""
    half = int(math.ceil(lam / grid.eps))
    d = np.arange(-half, half + 1)
    w = _profile(r, d * grid.eps / lam) / lam
    full = np.zeros(grid.M)
    np.add.at(full, d % grid.M, w)
    return full


@functools.lru_cache(maxsize=32)
def _site_matrix(r: int, N: int, lam: float, sites: tuple[int, ...]) -> np.ndarray:
    """(M, len(sites)) matrix whose column j is phi^lambda centred at site sites[j].

    Read-only and shared between calls. The cache holds at most 32
    matrices of at most M x M doubles: 256 MB in the worst case, at M = 1024
    (N = 10) when every entry pairs a level-10 field at all its sites. The
    convergence study reads 3 matrices per scale: 15 and 0.5 MB in all at
    levels (5, 6, 7), 21 and 11 MB at levels (7, 8, 9).
    """
    grid = GridSpec(N, 0.0)
    shifts = _space_kernel(r, grid, lam)[(np.arange(grid.M)[:, None] - np.asarray(sites)) % grid.M]
    shifts.flags.writeable = False
    return shifts


def _time_halfwidth(grid: GridSpec, lam: float) -> int:
    """kt: the parabolic kernel at scale lambda spans time steps -kt..kt."""
    return int(math.ceil(lam**2 / grid.dt))


def _time_kernel(tf: TestFunctionFamily, grid: GridSpec, lam: float) -> np.ndarray:
    """lambda^-2 phi((. )/lambda^2) sampled on time offsets -kt..kt."""
    kt = _time_halfwidth(grid, lam)
    return tf.profile(np.arange(-kt, kt + 1) * grid.dt / lam**2) / lam**2


class _WindowSums:
    """Time-weighted sums of a field's rows over fixed windows, fed a chunk of rows at a time.

    A group (w, tsel) sums rows t - kt .. t + kt with the 2 kt + 1 weights w
    for each t in tsel, which must lie inside the nt rows; group g's sums
    are ``blocks[g]``, one row of M per time. Every window is contracted in
    fixed tiles of ``_block(grid)`` rows aligned to row 0: per tile one
    gemv w[lo - s : hi - s] @ rows[lo:hi] (s = t - kt, a stacked product
    would not be batch-invariant), added to the window's sum in time order.
    A tile that a feed leaves incomplete is copied until its last row
    arrives, so every chunking, a row at a time included, makes the same
    gemvs on the same rows and gives the same bits. At most one partial
    tile is held between feeds.
    """

    def __init__(self, grid: GridSpec, nt: int, groups):
        self.nt, self.tile, self.fed = nt, _block(grid), 0
        self._weights = [w for w, tsel in groups for _ in tsel]
        self._starts = np.concatenate([np.asarray(tsel, dtype=np.int64) - len(w) // 2 for w, tsel in groups])
        self._ends = self._starts + np.array([len(w) for w in self._weights], dtype=np.int64)
        self.sums = np.zeros((len(self._weights), grid.M))
        cuts = np.cumsum([len(tsel) for _, tsel in groups])[:-1]
        self.blocks = np.split(self.sums, cuts)
        self._partial = None

    def feed(self, rows: np.ndarray) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.float64)  # every tile's gemv on the same layout
        if rows.ndim != 2 or rows.shape[1] != self.sums.shape[1]:
            raise ValueError(f"rows of shape {rows.shape}, expected (rows, {self.sums.shape[1]})")
        if self.fed + len(rows) > self.nt:
            raise ValueError(f"{self.fed + len(rows)} rows fed, past the {self.nt} rows of the field")
        i = 0
        while i < len(rows):
            j, off = divmod(self.fed + i, self.tile)
            a = j * self.tile
            length = min(self.tile, self.nt - a)
            take = min(length - off, len(rows) - i)
            if take == length:  # the whole tile is in this chunk
                self._contract(a, rows[i : i + take])
            else:
                if self._partial is None:
                    self._partial = np.empty((self.tile, self.sums.shape[1]))
                self._partial[off : off + take] = rows[i : i + take]
                if off + take == length:
                    self._contract(a, self._partial[:length])
            i += take
        self.fed += len(rows)

    def _contract(self, a: int, rows: np.ndarray) -> None:
        """Add tile rows a .. a + len(rows) - 1 into the sums of the windows that read them."""
        reads = np.flatnonzero((self._starts < a + len(rows)) & (self._ends > a))
        for k in reads.tolist():
            s, e = int(self._starts[k]), int(self._ends[k])
            lo, hi = max(s, a), min(e, a + len(rows))
            self.sums[k] += self._weights[k][lo - s : hi - s] @ rows[lo - a : hi - a]

    def check_complete(self) -> None:
        if self.fed != self.nt:
            raise ValueError(f"only {self.fed} of the field's {self.nt} rows fed")

    def reset(self) -> None:
        self.sums[:] = 0.0
        self.fed = 0


def _pairings_at(
    values: np.ndarray, grid: GridSpec, tf: TestFunctionFamily, lam: float, tsel: np.ndarray, xsel: np.ndarray, mode: str
) -> np.ndarray:
    """eps-weighted pairings with phi_x^lambda at rows tsel and sites xsel, shape (tsel, xsel).

    Mode "space" pairs rows tsel spatially, each row on its own, so a row's
    pairings do not depend on the rows stacked with it. "parabolic" pairs in
    space-time around times tsel, whose time windows must lie inside the
    field: dt times the space pairings of the windows' time-weighted sums
    (``_WindowSums``), so a point costs one pass over its window.
    """
    if mode == "parabolic":
        sums = _WindowSums(grid, len(values), [(_time_kernel(tf, grid, lam), np.asarray(tsel))])
        sums.feed(values)
        return grid.dt * _pairings_at(sums.blocks[0], grid, tf, lam, np.arange(len(tsel)), xsel, "space")
    shifts = _site_matrix(tf.r, grid.N, float(lam), tuple(np.asarray(xsel).tolist()))
    return grid.eps * (values[tsel, None] @ shifts)[:, 0]


def _slices_in_horizon(field: LatticeField, T: float | None):
    """The field's slices and times in (0, T] (every positive time without T)."""
    vals = np.atleast_2d(field.values)
    times = field.times
    keep = times > 1e-14
    if T is not None:
        keep &= times <= T + 1e-14
    if not keep.any():
        raise ValueError("no slices in (0, T]")
    return vals[keep], times[keep]


def holder_norm_space(field: LatticeField, alpha: float, eta: float, T: float | None = None) -> float:
    """Supremum norm with spatial increments weighted by |x - xbar|^alpha.

    Distances are plain coordinate differences on [0, 1).
    One of the paper's named Hoelder-Besov estimators: kept for users though no experiment calls it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    grid = field.grid
    vals, times = _slices_in_horizon(field, T)
    te = _t_eps(times, grid.eps)
    sup_abs = float(np.max(np.abs(vals) * te[:, None] ** (-min(eta, 0.0))))
    wt = te ** (alpha - eta)
    sup_inc = 0.0
    for lag in range(1, grid.M):
        inc = np.abs(vals[:, lag:] - vals[:, :-lag]).max(axis=1)
        sup_inc = max(sup_inc, float(np.max(wt * inc / (lag * grid.eps) ** alpha)))
    return sup_abs + sup_inc


def holder_norm_parabolic(field: LatticeField, alpha: float, eta: float, T: float | None = None) -> float:
    """Space norm plus the time-increment term over |t - tbar| <= |t,tbar|_eps^2.

    One of the paper's named Hoelder-Besov estimators: kept for users though no experiment calls it.
    """
    grid = field.grid
    base = holder_norm_space(field, alpha, eta, T)
    vals, times = _slices_in_horizon(field, T)
    te = _t_eps(times, grid.eps)
    sup_time = 0.0
    for gap in range(1, vals.shape[0]):
        dt_gap = times[gap:] - times[:-gap]
        pair_te = np.minimum(te[gap:], te[:-gap])
        ok = dt_gap <= pair_te**2 + 1e-14
        if not np.any(ok):
            continue
        num = np.max(np.abs(vals[gap:][ok] - vals[:-gap][ok]), axis=1)
        ratio = num / (pair_te[ok] ** (eta - alpha) * dt_gap[ok] ** (alpha / 2.0))
        sup_time = max(sup_time, float(np.max(ratio)))
    return base + sup_time


def _check_scale_list(tf: TestFunctionFamily, alpha: float):
    if not abs(alpha) < tf.r:  # also refuses NaN
        raise ValueError(f"profile smoothness r={tf.r} must exceed |alpha|={abs(alpha)}")


def _check_finite(values: np.ndarray, name: str):
    """A supremum folded with ``max`` would read a NaN as 0, so refuse one up front."""
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise ValueError(f"{bad} non-finite values in {name}")


def besov_norm_negative(
    field: LatticeField,
    alpha: float,
    tf: TestFunctionFamily,
    eta: float = 0.0,
    mode: str = "space",
) -> float:
    """sup over scales/bases of lambda^-alpha |<field, phi^lambda>_eps|.

    ``mode`` "space" pairs each time slice spatially (with the |t|_eps
    explosion weight); "parabolic" pairs in space-time on interior times and
    stops at the first scale whose time support no longer fits the horizon
    (larger scales fit even less). A field with a non-finite value has no
    norm: ValueError.
    One of the paper's named Hoelder-Besov estimators: kept for users though no experiment calls it.
    """
    _check_finite(field.values, "field")
    if alpha >= 0.0:
        raise ValueError("negative-regularity norm needs alpha < 0")
    if mode not in ("space", "parabolic"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_scale_list(tf, alpha)
    grid = field.grid
    if mode == "parabolic" and field.values.ndim != 2:
        raise ValueError("parabolic pairing needs a space-time field")
    vals = np.atleast_2d(field.values)
    weight = _t_eps(field.times, grid.eps)[:, None] ** (-min(eta, 0.0)) if mode == "space" else 1.0
    nt, sites = vals.shape[0], np.arange(grid.M)
    sups = []
    for lam in tf.scales:
        kt = _time_halfwidth(grid, lam) if mode == "parabolic" else 0
        if 2 * kt + 1 > nt:
            break
        pm = _pairings_at(vals, grid, tf, lam, np.arange(kt, nt - kt), sites, mode)
        sups.append(float(lam ** (-alpha) * (np.abs(pm) * weight).max()))
    if not sups:
        raise ValueError("no scale fits inside the horizon")
    return max([0.0, *sups])


def comparison_terms(level_slices, grids, times: np.ndarray, eta: float, tf: TestFunctionFamily) -> np.ndarray:
    """Weighted pairing gaps of consecutive levels, indexed (pair, scale, slice).

    Entry (p, s, i) is |t_i|_eps^(-min(eta, 0)), with eps of level p, times
    the supremum over level-p base sites x of
    |<u_p,i, phi_x^lambda_s> - <u_p+1,i, phi_x^lambda_s>|; scales below
    level p's eps leave pair p at 0. Each grid must refine the one before
    it dyadically, and ``times`` holds one time per slice. Every level is
    paired once per scale.
    """
    level_slices = [np.atleast_2d(v) for v in level_slices]
    if len(grids) < 2:
        raise ValueError(f"need two or more levels, got {len(grids)}")
    for coarse, fine in zip(grids[:-1], grids[1:]):
        if fine.N <= coarse.N:
            raise ValueError("reference grid must be strictly finer")
    if len({v.shape[0] for v in level_slices}) != 1:
        raise ValueError("snapshot counts disagree")
    if any(v.shape[1] != g.M for v, g in zip(level_slices, grids)):
        raise ValueError("slice lengths disagree with grids")
    times = np.asarray(times)
    n_slices = level_slices[0].shape[0]
    if times.shape != (n_slices,):
        raise ValueError(f"need one time per slice: {times.size} times for {n_slices} slices")
    n_pairs = len(grids) - 1
    te = [_t_eps(times, g.eps) ** (-min(eta, 0.0)) for g in grids[:-1]]
    rows = np.arange(n_slices)
    # every level is read at all its sites but the finest, which only the
    # last pair reads, at the sites of the level before it
    sites = [np.arange(g.M) for g in grids[:-1]] + [np.arange(0, grids[-1].M, grids[-1].M // grids[-2].M)]
    terms = np.zeros((n_pairs, len(tf.scales), n_slices))
    for s, lam in enumerate(tf.scales):
        # eps falls with the level, so the pairs that resolve lam are a suffix
        live = [p for p in range(n_pairs) if lam >= grids[p].eps - 1e-15]
        if not live:
            continue
        maps = [_pairings_at(v, g, tf, lam, rows, x, "space") for v, g, x in zip(level_slices, grids, sites)]
        for p in live:
            fine = maps[p + 1][:, :: len(sites[p + 1]) // grids[p].M]
            # te > 0, so scaling the per-slice supremum equals the supremum of
            # the scaled gaps exactly
            terms[p, s] = np.abs(maps[p] - fine).max(axis=1) * te[p]
    return terms


def comparison_sup(terms: np.ndarray, tf: TestFunctionFamily, alpha: float) -> float:
    """sup over scales and slices of lambda^-alpha times the comparison terms; non-finite terms are a ValueError."""
    _check_finite(terms, "comparison terms")
    _check_scale_list(tf, alpha)
    best = 0.0
    for lam, sup in zip(tf.scales, np.max(terms, axis=1)):
        best = max(best, float(lam ** (-alpha) * sup))
    return best


def comparison_norm(
    coarse_slices: np.ndarray,
    fine_slices: np.ndarray,
    times: np.ndarray,
    coarse_grid: GridSpec,
    fine_grid: GridSpec,
    alpha: float,
    eta: float,
    tf: TestFunctionFamily,
) -> float:
    """Coarse/fine pairing-difference norm against shared test functions.

    Both fields are paired with the same phi_x^lambda (each on its own
    grid with its own eps weight) at coarse base sites and shared snapshot
    times; the reference grid must refine the coarse one dyadically.
    One of the paper's named Hoelder-Besov estimators: kept for users though no experiment calls it.
    """
    terms = comparison_terms([coarse_slices, fine_slices], [coarse_grid, fine_grid], times, eta, tf)
    return comparison_sup(terms[0], tf, alpha)


@dataclass(frozen=True)
class HolderEstimate:
    exponent: float
    intercept: float
    residual: float
    scales: np.ndarray
    sup_pairings: np.ndarray
    mode: str


def _usable_scales(tf: TestFunctionFamily, grid: GridSpec, nt: int, mode: str) -> int:
    """How many leading scales estimate_exponent pairs on a field of nt time rows.

    kt grows with the scale, so the scales whose time support fits the
    horizon are a prefix (all of them in space mode). Raises when fewer than
    4 fit: they leave fewer than 3 band points to fit a slope to.
    """
    if len(tf.scales) < 4:
        raise ValueError("need >= 4 scales for >= 3 band points")
    if mode == "space":
        return len(tf.scales)
    usable = sum(2 * _time_halfwidth(grid, lam) + 1 <= nt for lam in tf.scales)
    if usable < 4:
        raise ValueError("not enough usable parabolic scales in the horizon")
    return usable


def _bands(grid: GridSpec, tf: TestFunctionFamily, nt: int, mode: str) -> list:
    """(smaller scale, larger scale, tsel, xsel) of each band that estimate_exponent reads on nt rows.

    The base points run on a lambda-proportional stride (spacing lambda/2,
    lambda^2/2 in time) over PATCHES correlation lengths per scale. They
    depend on the grid, the family and nt alone, never on the values.
    """
    usable = _usable_scales(tf, grid, nt, mode)
    bands = []
    for lam_a, lam_b in zip(tf.scales[:usable], tf.scales[1:usable]):
        kt_b = _time_halfwidth(grid, lam_b) if mode == "parabolic" else 0
        st_x = max(1, int(round(lam_a / (2.0 * grid.eps))))
        st_t = max(1, int(round(lam_a**2 / (2.0 * grid.dt))))
        # sample backwards from the latest usable time of the larger
        # scale: slow modes only equilibrate near the end of the horizon
        tsel = nt - 1 - kt_b - np.arange(PATCHES) * st_t
        tsel = tsel[tsel >= kt_b]
        xsel = (np.arange(2 * PATCHES + 1) * st_x) % grid.M
        bands.append((lam_a, lam_b, tsel, xsel))
    return bands


def _fit(bands: list, pairs: list, mode: str) -> HolderEstimate:
    """The least-squares line through (log2 lambda, log2 sup |pa - pb|) of the bands whose sup is positive.

    ``pairs`` holds each band's pairings (pa, pb) at its smaller and larger scale.
    """
    sups = np.array([np.abs(pa - pb).max() for pa, pb in pairs], dtype=np.float64)
    lams = np.array([lam_a for lam_a, *_ in bands], dtype=np.float64)
    if np.all(sups == 0.0):
        raise ValueError("degenerate fit: all band pairings vanish")
    good = sups > 0.0
    x = np.log2(lams[good])
    y = np.log2(sups[good])
    if x.size < 3:
        raise ValueError("fewer than 3 usable scales")
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return HolderEstimate(
        exponent=float(slope),
        intercept=float(intercept),
        residual=resid,
        scales=lams[good],
        sup_pairings=sups[good],
        mode=mode,
    )


class ParabolicPlan:
    """``estimate_exponent(mode="parabolic")`` of a field fed a chunk of time rows at a time.

    Built once per (grid, family, nt): it holds the fixed windows the
    estimator reads, the times tsel, the time weights and the sites xsel of
    each band and scale, and one row of M sums per (scale, time). ``feed``
    takes the field's next rows, in time order; ``finish`` returns the
    estimate once all nt rows are in and readies the plan for the next
    field. Fed whole, in chunks or a row at a time, it gives the bits of
    ``estimate_exponent`` on the whole field. A feed past nt, and a finish
    before the last row, are a ValueError.
    """

    def __init__(self, grid: GridSpec, tf: TestFunctionFamily, nt: int):
        self.grid, self.tf = grid, tf
        self.bands = _bands(grid, tf, nt, "parabolic")
        groups = [
            (_time_kernel(tf, grid, lam), tsel) for lam_a, lam_b, tsel, _ in self.bands for lam in (lam_a, lam_b)
        ]
        self._sums = _WindowSums(grid, nt, groups)

    def feed(self, rows: np.ndarray) -> None:
        self._sums.feed(rows)

    def finish(self) -> HolderEstimate:
        self._sums.check_complete()
        grid, blocks = self.grid, self._sums.blocks  # two per band, its smaller scale's first
        pairs = []
        for (lam_a, lam_b, tsel, xsel), sums_a, sums_b in zip(self.bands, blocks[0::2], blocks[1::2]):
            rows = np.arange(len(tsel))
            pa = grid.dt * _pairings_at(sums_a, grid, self.tf, lam_a, rows, xsel, "space")
            pb = grid.dt * _pairings_at(sums_b, grid, self.tf, lam_b, rows, xsel, "space")
            pairs.append((pa, pb))
        self._sums.reset()
        return _fit(self.bands, pairs, "parabolic")


def regularity_families(grid: GridSpec) -> tuple[TestFunctionFamily, TestFunctionFamily]:
    """The space and parabolic test families of the regularity table.

    Four dyadic scales each where the level and the horizon leave room; the
    parabolic ones must fit kt in the horizon (2 lambda^2 <= T - dt). Raises
    ValueError where estimate_exponent would refuse either family.
    """
    lam_min = 4 * grid.eps
    tf_space = make_test_family(grid, lambda_min=lam_min, lambda_max=min(0.5, max(0.125, 8 * lam_min)))
    lam_p = 2.0 ** math.floor(math.log2(math.sqrt((grid.T - grid.dt) / 2.0))) if grid.n_steps > 1 else 0.0
    tf_para = make_test_family(grid, lambda_min=max(grid.eps, lam_p / 8), lambda_max=lam_p)
    _usable_scales(tf_space, grid, 1, "space")
    _usable_scales(tf_para, grid, grid.n_steps, "parabolic")
    return tf_space, tf_para


def regularity_bytes(grid: GridSpec, tf: TestFunctionFamily) -> int:
    """About the most that one replica of the regularity table holds at once.

    The chunks of its lift (``lift_chunk_bytes``) and, for each of its two
    ``ParabolicPlan``s on family ``tf``, T2's and the noise's, the sums and
    the time weights, with one partial tile: T2's chunks end a row past a
    tile, the noise's on one. The space estimates read one row of each tree
    they fit.
    """
    bands = _bands(grid, tf, grid.n_steps + 1, "parabolic")
    sums = sum(2 * len(tsel) * grid.M for _, _, tsel, _ in bands)
    weights = sum(2 * _time_halfwidth(grid, lam) + 1 for band in bands for lam in band[:2])
    return lift_chunk_bytes(grid) + (2 * (sums + weights) + _block(grid) * grid.M) * 8


def estimate_exponent(field: LatticeField, tf: TestFunctionFamily, mode: str = "space") -> HolderEstimate:
    """Least-squares slope of log sup band-pairing against log lambda.

    The supremum runs over base points on a lambda-proportional stride
    (spacing lambda/2, lambda^2/2 in time) covering PATCHES correlation
    lengths per scale. Keeping the effective sample count
    scale-independent removes the extreme-value log factor that otherwise
    biases the slope low. Mode "space" pairs the last slice of a
    space-time field; "parabolic" feeds the whole field to a
    ``ParabolicPlan``. Raises on a degenerate (all-zero) pairing table.
    """
    grid = field.grid
    if mode == "parabolic":
        if field.values.ndim != 2:
            raise ValueError("parabolic pairing needs a space-time field")
        plan = ParabolicPlan(grid, tf, field.values.shape[0])
        plan.feed(field.values)
        return plan.finish()
    if mode != "space":
        raise ValueError(f"unknown mode {mode!r}")
    vals = np.atleast_2d(field.values)[-1:]
    bands = _bands(grid, tf, 1, mode)
    pairs = [
        (_pairings_at(vals, grid, tf, lam_a, tsel, xsel, mode), _pairings_at(vals, grid, tf, lam_b, tsel, xsel, mode))
        for lam_a, lam_b, tsel, xsel in bands
    ]
    return _fit(bands, pairs, mode)


def regularity_table(fam, consts, grid: GridSpec, seed: int, replicas: int) -> tuple[list, dict]:
    """Rows (target, mode, mean exponent, sd, replicas) over replicas seed, seed + 1, ..., and replica 0's estimates."""
    if replicas < 1:
        raise ValueError(f"replicas: expected >= 1, got {replicas}")
    tf_space, tf_para = regularity_families(grid)
    space = ("T1", "T11", "T12")
    # T2 has a row per time, the noise one per step
    plans = {lab: ParabolicPlan(grid, tf_para, grid.n_steps + (lab == "T2")) for lab in ("T2", NOISE_LABEL)}
    runs = []
    for rep in range(replicas):
        noise = NoiseField(grid, seed + rep)
        for span, chunk in lift_chunks(noise, fam, consts, labels=(*space, "T2", NOISE_LABEL), last=space):
            for lab, plan in plans.items():
                plan.feed(chunk[lab])
            if span.stop > grid.n_steps:  # the final chunk
                finals = {lab: chunk[lab] for lab in space}
            chunk.clear()  # hold nothing of this chunk while the next is made
        ests = {lab: estimate_exponent(LatticeField(grid, finals[lab]), tf_space, mode="space") for lab in space}
        ests["T2"], ests["noise"] = plans["T2"].finish(), plans[NOISE_LABEL].finish()
        runs.append(ests)
    rows = []
    for lab in runs[0]:
        vals = [ests[lab].exponent for ests in runs]
        sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        rows.append((lab, "space" if lab in space else "parabolic", float(np.mean(vals)), sd, replicas))
    return rows, runs[0]
