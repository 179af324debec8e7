"""Discrete Hoelder-Besov norms and the regularity-exponent estimator.

Positive-regularity norms are exact increment suprema over grid pairs.
Negative-regularity norms pair the field with rescaled copies of a
polynomial bump

    phi(y) = c_r (1 - y^2)^(r+1)   on |y| < 1,  unit continuum mass,

at dyadic scales lambda in [eps, 1]; the parabolic variant rescales time by
lambda^2. Pairings are evaluated at every base site via FFT correlation, so
suprema cost one transform per scale. One loop, ``_pairing_maps``, walks
the scales for the Besov norm and the exponent estimator alike.

The exponent estimator fits the log-log slope of sup-pairings of the
*band* functions phi^lambda - phi^(2 lambda) (differences of consecutive
dyadic dilates). The band family has zero mass, so the estimator resolves
positive exponents as well; with the plain bump any function-valued field
would saturate at slope 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, LatticeField
from .operators import time_convolve

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

    @property
    def mass_constant(self) -> float:
        s = self.r + 1
        return math.gamma(s + 1.5) / (math.sqrt(math.pi) * math.gamma(s + 1))

    def profile(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        out = np.zeros_like(y)
        inside = np.abs(y) < 1.0
        out[inside] = self.mass_constant * (1.0 - y[inside] ** 2) ** (self.r + 1)
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


def _space_kernel(tf: TestFunctionFamily, grid: GridSpec, lam: float) -> np.ndarray:
    """lambda^-1 phi((. )/lambda) sampled on site offsets, torus-periodized."""
    half = int(math.ceil(lam / grid.eps))
    d = np.arange(-half, half + 1)
    w = tf.profile(d * grid.eps / lam) / lam
    full = np.zeros(grid.M)
    np.add.at(full, d % grid.M, w)
    return full


def _space_pairing_map(values: np.ndarray, grid: GridSpec, tf: TestFunctionFamily, lam: float) -> np.ndarray:
    """eps-weighted pairing against phi_x^lambda at every base site x."""
    w = _space_kernel(tf, grid, lam)
    spec = np.fft.fft(values, axis=-1) * np.conj(np.fft.fft(w))
    return grid.eps * np.fft.ifft(spec, axis=-1).real


def _parabolic_pairing_map(values: np.ndarray, grid: GridSpec, tf: TestFunctionFamily, lam: float):
    """Space-time pairing map and the time indices free of boundary padding.

    None when the scale's time support does not fit the horizon.
    """
    if values.ndim != 2:
        raise ValueError("parabolic pairing needs a space-time field")
    nt = values.shape[0]
    kt = int(math.ceil(lam**2 / grid.dt))
    if 2 * kt + 1 > nt:
        return None
    spatial = _space_pairing_map(values, grid, tf, lam)  # carries eps * lambda^-1 phi_x
    mt = np.arange(-kt, kt + 1)
    wt = tf.profile(mt * grid.dt / lam**2) / lam**2
    conv = time_convolve(spatial, wt[::-1, None]).real
    corr = conv[kt : kt + nt]  # linear correlation with zero padding outside
    interior = np.arange(kt, nt - kt)
    return grid.dt * corr, interior


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
    """Space norm plus the time-increment term over |t - tbar| <= |t,tbar|_eps^2."""
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
    if tf.r <= abs(alpha):
        raise ValueError(f"profile smoothness r={tf.r} must exceed |alpha|={abs(alpha)}")


def _pairing_maps(values: np.ndarray, grid: GridSpec, tf: TestFunctionFamily, mode: str):
    """(lambda, pairing map, rows) per scale, in ascending scale order.

    ``rows`` are the map's time rows free of boundary effects. Mode "space"
    pairs each slice spatially at every scale; "parabolic" pairs in
    space-time and stops at the first scale whose time support no longer
    fits the horizon (larger scales fit even less).
    """
    if mode == "space":
        values = np.atleast_2d(values)
        for lam in tf.scales:
            yield lam, _space_pairing_map(values, grid, tf, lam), slice(None)
    elif mode == "parabolic":
        for lam in tf.scales:
            found = _parabolic_pairing_map(values, grid, tf, lam)
            if found is None:
                return
            yield lam, *found
    else:
        raise ValueError(f"unknown mode {mode!r}")


def besov_norm_negative(
    field: LatticeField,
    alpha: float,
    tf: TestFunctionFamily,
    eta: float = 0.0,
    mode: str = "space",
) -> float:
    """sup over scales/bases of lambda^-alpha |<field, phi^lambda>_eps|.

    ``mode`` "space" pairs each time slice spatially (with the |t|_eps
    explosion weight); "parabolic" pairs in space-time on interior times.
    """
    if alpha >= 0.0:
        raise ValueError("negative-regularity norm needs alpha < 0")
    _check_scale_list(tf, alpha)
    grid = field.grid
    weight = _t_eps(field.times, grid.eps)[:, None] ** (-min(eta, 0.0)) if mode == "space" else 1.0
    sups = [
        float(lam ** (-alpha) * (np.abs(pm[rows]) * weight).max())
        for lam, pm, rows in _pairing_maps(field.values, grid, tf, mode)
    ]
    if not sups:
        raise ValueError("no scale fits inside the horizon")
    return max([0.0, *sups])


def comparison_terms(level_slices, grids, times: np.ndarray, eta: float, tf: TestFunctionFamily) -> np.ndarray:
    """Weighted pairing gaps of consecutive levels, indexed (pair, scale, slice).

    Entry (p, s, i) is |t_i|_eps^(-min(eta, 0)), with eps of level p, times
    the supremum over level-p base sites x of
    |<u_p,i, phi_x^lambda_s> - <u_p+1,i, phi_x^lambda_s>|; scales below
    level p's eps leave pair p at 0. Each grid must refine the one before
    it dyadically. Every level is paired once per scale.
    """
    level_slices = [np.atleast_2d(v) for v in level_slices]
    for coarse, fine in zip(grids[:-1], grids[1:]):
        if fine.N <= coarse.N:
            raise ValueError("reference grid must be strictly finer")
    if len({v.shape[0] for v in level_slices}) != 1:
        raise ValueError("snapshot counts disagree")
    if any(v.shape[1] != g.M for v, g in zip(level_slices, grids)):
        raise ValueError("slice lengths disagree with grids")
    n_pairs = len(grids) - 1
    te = [_t_eps(np.asarray(times), g.eps) ** (-min(eta, 0.0)) for g in grids[:-1]]
    terms = np.zeros((n_pairs, len(tf.scales), level_slices[0].shape[0]))
    for s, lam in enumerate(tf.scales):
        # eps falls with the level, so the pairs that resolve lam are a suffix
        live = [p for p in range(n_pairs) if lam >= grids[p].eps - 1e-15]
        if not live:
            continue
        maps = {q: _space_pairing_map(level_slices[q], grids[q], tf, lam) for q in range(live[0], n_pairs + 1)}
        for p in live:
            ratio = 2 ** (grids[p + 1].N - grids[p].N)
            # te > 0, so scaling the per-slice supremum equals the supremum of
            # the scaled gaps exactly
            terms[p, s] = np.abs(maps[p] - maps[p + 1][:, ::ratio]).max(axis=1) * te[p]
    return terms


def comparison_sup(terms: np.ndarray, tf: TestFunctionFamily, alpha: float) -> float:
    """sup over scales and slices of lambda^-alpha times the comparison terms."""
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


def estimate_exponent(field: LatticeField, tf: TestFunctionFamily, mode: str = "space") -> HolderEstimate:
    """Least-squares slope of log sup band-pairing against log lambda.

    The supremum runs over base points on a lambda-proportional stride
    (spacing lambda/2, lambda^2/2 in time) covering PATCHES correlation
    lengths per scale. Keeping the effective sample count
    scale-independent removes the extreme-value log factor that otherwise
    biases the slope low. Mode "space" pairs the last slice of a
    space-time field. Raises on a degenerate (all-zero) pairing table.
    """
    grid = field.grid
    if len(tf.scales) < 4:
        raise ValueError("need >= 4 scales for >= 3 band points")
    vals = field.values[-1:] if mode == "space" and field.values.ndim == 2 else field.values
    sups, lams = [], []
    prev = None
    for lam, pm, rows in _pairing_maps(vals, grid, tf, mode):
        if prev is not None:
            lam_a, pa = prev
            st_x = max(1, int(round(lam_a / (2.0 * grid.eps))))
            st_t = max(1, int(round(lam_a**2 / (2.0 * grid.dt))))
            # sample backwards from the latest usable time of the larger
            # scale: slow modes only equilibrate near the end of the horizon
            t = np.arange(pm.shape[0])[rows]
            tsel = t[-1] - np.arange(PATCHES) * st_t
            tsel = tsel[tsel >= t[0]]
            xsel = (np.arange(2 * PATCHES + 1) * st_x) % grid.M
            sel = np.ix_(tsel, xsel)
            sups.append(float(np.abs(pa[sel] - pm[sel]).max()))
            lams.append(lam_a)
        prev = lam, pm
    if len(sups) < 3:
        raise ValueError("not enough usable parabolic scales in the horizon")
    sups = np.asarray(sups, dtype=np.float64)
    lams = np.asarray(lams, dtype=np.float64)
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
