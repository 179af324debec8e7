"""Discrete Hoelder-Besov norms and the regularity-exponent estimator.

Positive-regularity norms are exact increment suprema over grid pairs (with
an optional base-point stride that makes them documented lower bounds).
Negative-regularity norms pair the field with rescaled copies of a
polynomial bump

    phi(y) = c_r (1 - y^2)^(r+1)   on |y| < 1,  unit continuum mass,

at dyadic scales lambda in [eps, 1]; the parabolic variant rescales time by
lambda^2. Pairings are evaluated at every base site via FFT correlation, so
suprema cost one transform per scale.

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


def make_test_family(grid: GridSpec, r: int = 4, lambda_min: float | None = None, lambda_max: float = 1.0) -> TestFunctionFamily:
    """Dyadic scales eps * 2^j clipped to [lambda_min, lambda_max]."""
    lo = grid.eps if lambda_min is None else lambda_min
    scales = []
    lam = grid.eps
    while lam <= lambda_max + 1e-12:
        if lam >= lo - 1e-12:
            scales.append(lam)
        lam *= 2.0
    return TestFunctionFamily(r=r, scales=np.array(scales))


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
    """Space-time pairing map and the time indices free of boundary padding."""
    if values.ndim != 2:
        raise ValueError("parabolic pairing needs a space-time field")
    nt = values.shape[0]
    kt = int(math.ceil(lam**2 / grid.dt))
    if 2 * kt + 1 > nt:
        return None, None
    spatial = _space_pairing_map(values, grid, tf, lam)  # carries eps * lambda^-1 phi_x
    mt = np.arange(-kt, kt + 1)
    wt = tf.profile(mt * grid.dt / lam**2) / lam**2
    L = 1
    while L < nt + 2 * kt + 1:
        L *= 2
    conv = np.fft.ifft(np.fft.fft(spatial, n=L, axis=0) * np.fft.fft(wt[::-1], n=L, axis=0)[:, None], axis=0).real
    corr = conv[kt : kt + nt]  # linear correlation with zero padding outside
    interior = np.arange(kt, nt - kt)
    return grid.dt * corr, interior


def _as_field(field, grid=None) -> LatticeField:
    if isinstance(field, LatticeField):
        return field
    if grid is None:
        raise ValueError("raw arrays need an explicit grid")
    return LatticeField(grid=grid, values=np.asarray(field, dtype=np.float64))


def holder_norm_space(
    field: LatticeField,
    alpha: float,
    eta: float,
    T: float | None = None,
    base_stride: int = 1,
    time_stride: int = 1,
) -> float:
    """Supremum norm with spatial increments weighted by |x - xbar|^alpha.

    Distances are plain coordinate differences on [0, 1). Strides > 1 turn
    the result into a documented lower bound of the full supremum.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    grid = field.grid
    vals = np.atleast_2d(field.values)
    times = field.times
    keep = times > 1e-14
    if T is not None:
        keep &= times <= T + 1e-14
    vals, times = vals[keep], times[keep]
    if vals.size == 0:
        raise ValueError("no slices in (0, T]")
    te = _t_eps(times, grid.eps)
    sup_abs = float(np.max(np.abs(vals) * te[:, None] ** (-min(eta, 0.0))))
    sup_inc = 0.0
    for it in range(0, vals.shape[0], time_stride):
        v = vals[it]
        wt = te[it] ** (alpha - eta)
        for lag in range(1, grid.M):
            idx = np.arange(0, grid.M - lag, base_stride)
            if idx.size == 0:
                continue
            m = np.max(np.abs(v[idx + lag] - v[idx]))
            sup_inc = max(sup_inc, wt * m / (lag * grid.eps) ** alpha)
    return sup_abs + sup_inc


def holder_norm_parabolic(
    field: LatticeField,
    alpha: float,
    eta: float,
    T: float | None = None,
    base_stride: int = 1,
    time_stride: int = 1,
) -> float:
    """Space norm plus the time-increment term over |t - tbar| <= |t,tbar|_eps^2."""
    grid = field.grid
    base = holder_norm_space(field, alpha, eta, T, base_stride, time_stride)
    vals = np.atleast_2d(field.values)
    times = field.times
    keep = times > 1e-14
    if T is not None:
        keep &= times <= T + 1e-14
    vals, times = vals[keep], times[keep]
    te = _t_eps(times, grid.eps)
    nt = vals.shape[0]
    sup_time = 0.0
    cols = np.arange(0, grid.M, base_stride)
    for gap in range(1, nt):
        dt_gap = times[gap:] - times[:-gap]
        pair_te = np.minimum(te[gap:], te[:-gap])
        ok = dt_gap <= pair_te**2 + 1e-14
        if not np.any(ok):
            continue
        num = np.max(np.abs(vals[gap:][ok][:, cols] - vals[:-gap][ok][:, cols]), axis=1)
        ratio = num / (pair_te[ok] ** (eta - alpha) * dt_gap[ok] ** (alpha / 2.0))
        sup_time = max(sup_time, float(np.max(ratio)))
    return base + sup_time


def _check_scale_list(tf: TestFunctionFamily, alpha: float):
    if tf.r <= abs(alpha):
        raise ValueError(f"profile smoothness r={tf.r} must exceed |alpha|={abs(alpha)}")


def besov_norm_negative(
    field: LatticeField,
    alpha: float,
    tf: TestFunctionFamily,
    eta: float = 0.0,
    mode: str = "space",
    base_stride: int = 1,
) -> float:
    """sup over scales/bases of lambda^-alpha |<field, phi^lambda>_eps|.

    ``mode`` "space" pairs each time slice spatially (with the |t|_eps
    explosion weight); "parabolic" pairs in space-time on interior times.
    """
    if alpha >= 0.0:
        raise ValueError("negative-regularity norm needs alpha < 0")
    _check_scale_list(tf, alpha)
    grid = field.grid
    vals = field.values
    best = 0.0
    if mode == "space":
        vals2 = np.atleast_2d(vals)
        te = _t_eps(field.times, grid.eps) ** (-min(eta, 0.0))
        for lam in tf.scales:
            pm = _space_pairing_map(vals2, grid, tf, lam)
            weighted = np.abs(pm[:, ::base_stride]) * te[:, None]
            best = max(best, float(lam ** (-alpha) * weighted.max()))
        return best
    if mode == "parabolic":
        for lam in tf.scales:
            pm, interior = _parabolic_pairing_map(vals, grid, tf, lam)
            if pm is None or interior.size == 0:
                continue
            best = max(best, float(lam ** (-alpha) * np.abs(pm[interior][:, ::base_stride]).max()))
        if best == 0.0 and np.any(vals != 0.0):
            raise ValueError("no scale fits inside the horizon")
        return best
    raise ValueError(f"unknown mode {mode!r}")


def comparison_terms(
    coarse_slices: np.ndarray,
    fine_slices: np.ndarray,
    times: np.ndarray,
    coarse_grid: GridSpec,
    fine_grid: GridSpec,
    eta: float,
    tf: TestFunctionFamily,
    base_stride: int = 1,
) -> np.ndarray:
    """Weighted coarse/fine pairing gaps, one row per scale, one column per slice.

    Entry (s, i) is |t_i|_eps^(-min(eta, 0)) times the supremum over coarse
    base sites x of |<coarse_i, phi_x^lambda_s> - <fine_i, phi_x^lambda_s>|;
    scales below the coarse eps read 0. The reference grid must refine the
    coarse one dyadically.
    """
    if fine_grid.N <= coarse_grid.N:
        raise ValueError("reference grid must be strictly finer")
    ratio = 2 ** (fine_grid.N - coarse_grid.N)
    coarse_slices = np.atleast_2d(coarse_slices)
    fine_slices = np.atleast_2d(fine_slices)
    if coarse_slices.shape[0] != fine_slices.shape[0]:
        raise ValueError("snapshot counts disagree")
    if coarse_slices.shape[1] != coarse_grid.M or fine_slices.shape[1] != fine_grid.M:
        raise ValueError("slice lengths disagree with grids")
    te = _t_eps(np.asarray(times), coarse_grid.eps) ** (-min(eta, 0.0))
    terms = np.zeros((len(tf.scales), coarse_slices.shape[0]))
    for s, lam in enumerate(tf.scales):
        if lam < coarse_grid.eps - 1e-15:
            continue
        pc = _space_pairing_map(coarse_slices, coarse_grid, tf, lam)
        pf = _space_pairing_map(fine_slices, fine_grid, tf, lam)[:, ::ratio]
        # te > 0, so scaling the per-slice supremum equals the supremum of
        # the scaled gaps exactly
        terms[s] = np.abs(pc - pf)[:, ::base_stride].max(axis=1) * te
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
    base_stride: int = 1,
) -> float:
    """Coarse/fine pairing-difference norm against shared test functions.

    Both fields are paired with the same phi_x^lambda (each on its own
    grid with its own eps weight) at coarse base sites and shared snapshot
    times; the reference grid must refine the coarse one dyadically.
    """
    terms = comparison_terms(coarse_slices, fine_slices, times, coarse_grid, fine_grid, eta, tf, base_stride)
    return comparison_sup(terms, tf, alpha)


@dataclass(frozen=True)
class HolderEstimate:
    exponent: float
    intercept: float
    residual: float
    scales: np.ndarray
    sup_pairings: np.ndarray
    mode: str


def estimate_exponent(
    field: LatticeField,
    tf: TestFunctionFamily,
    mode: str = "space",
    patches: int = 16,
    time_index: int | None = None,
) -> HolderEstimate:
    """Least-squares slope of log sup band-pairing against log lambda.

    The supremum runs over base points on a lambda-proportional stride
    (spacing lambda/2, lambda^2/2 in time) covering ``patches``
    correlation lengths per scale. Keeping the effective sample count
    scale-independent removes the extreme-value log factor that otherwise
    biases the slope low. For mode "space" on a space-time field,
    ``time_index`` picks the slice (default: last). Raises on a degenerate
    (all-zero) pairing table.
    """
    grid = field.grid
    if len(tf.scales) < 4:
        raise ValueError("need >= 4 scales for >= 3 band points")
    if mode == "space":
        vals = field.values if field.values.ndim == 1 else field.values[-1 if time_index is None else time_index]
        maps = [_space_pairing_map(vals, grid, tf, lam) for lam in tf.scales]
        sups, lams = [], []
        for lam, a, b in zip(tf.scales[:-1], maps[:-1], maps[1:]):
            stride = max(1, int(round(lam / (2.0 * grid.eps))))
            idx = (np.arange(2 * patches + 1) * stride) % grid.M
            sups.append(float(np.abs(a - b)[idx].max()))
            lams.append(lam)
        lams = np.array(lams)
    elif mode == "parabolic":
        if field.values.ndim != 2:
            raise ValueError("parabolic mode needs a space-time field")
        maps, lams_kept = [], []
        for lam in tf.scales:
            pm, interior = _parabolic_pairing_map(field.values, grid, tf, lam)
            if pm is None or interior.size == 0:
                break
            maps.append((pm, interior))
            lams_kept.append(lam)
        if len(maps) < 4:
            raise ValueError("not enough usable parabolic scales in the horizon")
        sups, lams = [], []
        for (pa, ia), (pb, ib), lam in zip(maps[:-1], maps[1:], lams_kept[:-1]):
            band = np.abs(pa - pb)
            st_x = max(1, int(round(lam / (2.0 * grid.eps))))
            st_t = max(1, int(round(lam**2 / (2.0 * grid.dt))))
            # sample backwards from the late interior: slow modes only
            # equilibrate near the end of the horizon
            tsel = ib[-1] - np.arange(patches) * st_t
            tsel = tsel[tsel >= ib[0]]
            xsel = (np.arange(2 * patches + 1) * st_x) % grid.M
            sups.append(float(band[np.ix_(tsel, xsel)].max()))
            lams.append(lam)
        lams = np.array(lams)
    else:
        raise ValueError(f"unknown mode {mode!r}")
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
