"""Test oracles: deliberately slow re-derivations of library results.

``mild_oracle`` evaluates the explicit scheme in its mild (Duhamel) form,
quadratic in the step count, so that the stepping solver can be checked
against an independent spelling of the same recurrence.

``stencil_apply_roll``, ``twisted_product_roll`` and ``forward_diffs_roll``
spell the stencil operators, the twisted product and the kernel forward
differences with ``np.roll``, one rolled copy per offset; they are the
reference that the blocked engine of ``sbe.operators`` must match bit for
bit. ``step_roll`` spells one explicit step with them, the reference for
the solver's held step.

``dxp_forward`` and ``trees_forward`` rebuild the tree processes of
``sbe.processes.lift`` without its transforms: DxP * F by stepping the
forward scheme of the linear family with F as the forcing, and every
twisted product by ``twisted_product_roll``. ``dxk_fft`` is DxK * F with K
the singular part of the heat kernel, by an FFT along time: the
split-kernel response, which the suite compares with the full one.
``dxk_direct`` takes the same sum directly at chosen points, its reference.
``remainder_r21`` and ``remainder_r1222`` are the remainders of the paper's
expansion at a point, read off the trees.

``increment_sums_zeros_like`` is the direct-sum loop of criterion 9's check
as first written: a zero kernel-sized field and a fancy index per point,
added by one np.sum. The leaf-by-leaf sums of ``sbe.kernels._direct_sums``
must equal it bit for bit.

``spacetime_convolve`` and ``renormalized_convolve`` put the plain and
the renormalized space-time convolutions of two plain arrays together from
the output blocks of ``sbe.kernels._convolved``, the pipeline of the
renormalized-square check, so that its blocks can be checked whole.

``stacked`` joins the blocks of a ``HeatKernel`` pass into one array:
the kernel's rows, its singular part or the decay bounds' per-time maxima.

``columns_whole``, ``split_whole``, ``bound_maxima_whole``,
``time_convolve_whole``, ``spacetime_convolve_whole`` and
``order_norm_whole`` are the heat kernel, its singular part and decay
bounds, the time and space-time convolutions and the order norm spelled on
whole fields, one field-sized array per step, the heat kernel's on the real
half-spectrum as ``sbe.heat`` takes it. ``split_whole`` takes the cutoff at
every site, with its exps on boolean gathers (``cutoff_whole``), where
``sbe.heat`` takes it on the M/2 + 1 distinct |x| with masked exps. The
blocked passes of ``sbe.heat`` and ``sbe.kernels`` must equal them bit for
bit.

``space_pairing_map`` and ``parabolic_pairing_map`` pair a field with the
test functions phi_x^lambda of ``sbe.norms`` at every base site, by FFT
correlation. They are the reference that the direct sums of
``sbe.norms._pairings_at`` must match within rounding.
"""

import numpy as np

from sbe import kernels
from sbe.grids import GridSpec, NoiseField
from sbe.heat import CUTOFF_INNER, CUTOFF_OUTER, HeatKernel, parabolic_norm, smooth_parabolic_norm
from sbe.kernels import _occupied_rows
from sbe.measures import AtomicMeasure1D, AtomicMeasure2D
from sbe.norms import TestFunctionFamily, _space_kernel, _time_halfwidth, _time_kernel
from sbe.operators import OperatorFamily, _blocks, derivative_multiplier, modes, twisted_product
from sbe.solver import SchemeConfig, Trajectory, _escaped, _Step


def _check_support(measure_radius: int, M: int):
    if measure_radius >= M / 2:
        raise ValueError(f"measure radius {measure_radius} wraps on M={M} torus")


def stencil_apply_roll(measure: AtomicMeasure1D, coeff: float, u: np.ndarray) -> np.ndarray:
    """coeff * sum_j w_j u(. + eps j) along the last axis."""
    u = np.asarray(u, dtype=np.float64)
    _check_support(max(abs(int(j)) for j in measure.offsets), u.shape[-1])
    out = np.zeros_like(u)
    for j, w in zip(measure.offsets, measure.weights):
        out += w * np.roll(u, -int(j), axis=-1)
    return coeff * out


def twisted_product_roll(mu: AtomicMeasure2D, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """B(f, g) under mu; bilinear, symmetric when mu is exchange-symmetric."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape:
        raise ValueError("twisted product needs matching shapes")
    M = f.shape[-1]
    _check_support(mu.radius, M)
    out = np.zeros_like(f)
    # Group atoms by the first offset so each roll of f is reused.
    by_j1: dict[int, list[tuple[int, float]]] = {}
    for (j1, j2), w in mu.atoms:
        by_j1.setdefault(j1, []).append((j2, w))
    for j1, pairs in by_j1.items():
        acc = np.zeros_like(g)
        for j2, w in pairs:
            acc += w * np.roll(g, -j2, axis=-1)
        out += np.roll(f, -j1, axis=-1) * acc
    return out


def step_roll(cfg: SchemeConfig, u: np.ndarray, xi_slice: np.ndarray) -> np.ndarray:
    """u + dt (lap u + der(B(u, u) + b u + xi)), every operator by roll."""
    fam, eps = cfg.fam, cfg.grid.eps
    transported = twisted_product_roll(fam.mu, u, u) + cfg.b_drift * u + xi_slice
    lap = stencil_apply_roll(fam.nu, 1.0 / (2.0 * fam.nu_bar * eps**2), u)
    return u + cfg.grid.dt * (lap + stencil_apply_roll(fam.pi, 1.0 / eps, transported))


def forward_diffs_roll(values: np.ndarray, grid: GridSpec, m: int) -> dict:
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


def mild_oracle(cfg: SchemeConfig, u0: np.ndarray, noise: NoiseField, T: float) -> Trajectory:
    """Duhamel evaluation of the scheme, slice by slice.

    u(n) = P_n * u0 + eps^2 sum_{s<n} (DxP)_{n-1-s} * [B(u,u) + b u + xi](s),
    with every convolution spectral and past slices reused. Algebraically
    identical to ``run``; kept quadratic in the step count on purpose.
    """
    if noise.grid.N != cfg.grid.N:
        raise ValueError("noise and scheme grids disagree")
    n_steps = int(round(T / cfg.grid.dt))
    if n_steps > noise.grid.n_steps:
        raise ValueError("horizon exceeds the noise horizon")
    eps = cfg.grid.eps
    hk = HeatKernel(cfg.grid, cfg.fam)
    m = hk.multiplier
    dmult = derivative_multiplier(cfg.fam, eps, cfg.grid.M)
    u0 = np.array(u0, dtype=np.float64)
    u0_hat = np.fft.fft(u0)
    forcing_hats: list[np.ndarray] = []
    u = u0.copy()
    snaps = [(0.0, u.copy())]
    traj = Trajectory(snapshots=snaps)
    for n in range(1, n_steps + 1):
        prev = u
        forcing = twisted_product(cfg.fam.mu, prev, prev) + cfg.b_drift * prev + noise.values[n - 1]
        forcing_hats.append(np.fft.fft(forcing))
        acc = m**n * u0_hat
        for s, fh in enumerate(forcing_hats):
            acc = acc + cfg.grid.dt * dmult * m ** (n - 1 - s) * fh
        u = np.fft.ifft(acc).real
        if _escaped(u):
            traj.blowup = True
            traj.blowup_time = n * cfg.grid.dt
            break
        if n % cfg.record_stride == 0 or n == n_steps:
            snaps.append((n * cfg.grid.dt, u.copy()))
    return traj


def linear_family(fam: OperatorFamily) -> OperatorFamily:
    """fam's nu and pi with the zero product measure: the scheme without its nonlinearity."""
    return OperatorFamily(fam.nu, fam.pi, AtomicMeasure2D({(0, 0): 0.0}))


def dxp_forward(fam: OperatorFamily, grid: GridSpec, forcing: np.ndarray) -> np.ndarray:
    """DxP * F by the forward scheme, rows 0..n_steps.

    The explicit step of the linear family (zero product, zero drift) from
    a zero start, with F in place of the noise: row n is
    eps^2 sum_{s<n} (DxP)_{n-1-s} * F_s, since step n reads F at row n - 1.
    The step is the one ``step_forward`` prepares per call, held for all
    rows with F as its noise rows: the same bits, at a third of the cost.
    """
    out = np.zeros((grid.n_steps + 1, grid.M))
    step = _Step(SchemeConfig(linear_family(fam), grid), out[:1])
    np.copyto(step.noise_rows(grid.n_steps)[:, 0], forcing[: grid.n_steps])
    for n in range(1, grid.n_steps + 1):
        step.advance(n - 1)
        out[n] = step.states()[0]
    return out


def trees_forward(noise: NoiseField, fam: OperatorFamily, a: float, b: float) -> dict:
    """The nine trees and DxP * T1 (key "dxp_t1") by ``dxp_forward``.

    Each tree is built from the oracle's own lower trees, never from lift's.
    """
    grid = noise.grid

    def conv(f):
        return dxp_forward(fam, grid, f)

    def B(f, g):
        return twisted_product_roll(fam.mu, f, g)

    t = {"T1": conv(noise.values)}
    t["dxp_t1"] = conv(t["T1"])
    t["T11"] = B(np.ones_like(t["T1"]), t["dxp_t1"])
    t["T2"] = B(t["T1"], t["T1"]) - a
    t["T21"] = B(t["T11"], t["T1"]) - b
    t["T12"] = conv(t["T2"])
    t["T22"] = B(t["T12"], t["T1"]) - 2.0 * b * t["T1"]
    t["T122"] = conv(t["T22"])
    t["T124"] = conv(B(t["T12"], t["T12"]))
    t["T1222"] = conv(B(t["T122"], t["T1"]) - b * t["T12"])
    return t


def dxk_direct(fam: OperatorFamily, grid: GridSpec, forcing: np.ndarray, points) -> np.ndarray:
    """(DxK * F)(n, x) at each (n, x) of ``points`` by the direct sum.

    eps^3 sum_{s<n} sum_y DxK(n-1-s, x-y) F(s, y), with K the singular part of
    the heat kernel up to the grid horizon and DxK its roll-stencil
    derivative.
    """
    eps, M = grid.eps, grid.M
    dxk = stencil_apply_roll(fam.pi, 1.0 / eps, stacked(HeatKernel(grid, fam).singular_blocks(grid.T)))
    y = np.arange(M)
    vals = []
    for n, x in points:
        s = np.arange(n)
        vals.append(eps**3 * np.sum(dxk[n - 1 - s][:, (x - y) % M] * forcing[s]))
    return np.array(vals)


def dxk_fft(fam: OperatorFamily, grid: GridSpec, forcing: np.ndarray) -> np.ndarray:
    """DxK * F on rows 0..n_steps by an FFT along time, K the singular part up to the grid horizon.

    Row n is eps^3 sum_{s<n} (DxK)_{n-1-s} * F_s, the sum of ``dxk_direct``,
    with DxK the spectral derivative on real half-spectra and the time sum
    ``time_convolve_whole`` of the half-spectra. It is the split-kernel
    response that ``processes.lift`` once built beside the full one.
    """
    eps, nt, half = grid.eps, grid.n_steps, grid.M // 2 + 1
    dmult = derivative_multiplier(fam, eps, grid.M)[:half]
    k_hat = (np.fft.rfft(stacked(HeatKernel(grid, fam).singular_blocks(grid.T)), axis=1) * dmult)[:nt]
    out = np.zeros((nt + 1, half), dtype=np.complex128)
    out[1:] = eps**3 * time_convolve_whole(k_hat, np.fft.rfft(forcing[:nt], axis=1))[:nt]
    return np.fft.irfft(out, n=grid.M, axis=1)


def twisted_at(fam: OperatorFamily, f: np.ndarray, x: int, g: np.ndarray, y: int) -> float:
    """int f(x + y1) g(y + y2) mu(dy1, dy2) on the torus, atom by atom."""
    M = f.shape[-1]
    acc = 0.0
    for (j1, j2), w in fam.mu.atoms:
        acc += w * f[(x + j1) % M] * g[(y + j2) % M]
    return acc


def remainder_r21(trees: dict, fam: OperatorFamily, t_idx: int, x_idx: int, y_idx: int) -> float:
    """R21(t, x; y) = T21(t, y) - int T11(t, x+y1) T1(t, y+y2) mu(dy1, dy2)."""
    acc = twisted_at(fam, trees["T11"][t_idx], x_idx, trees["T1"][t_idx], y_idx)
    return float(trees["T21"][t_idx, y_idx] - acc)


def remainder_r1222(trees: dict, dxp_t1: np.ndarray, fam: OperatorFamily, z: tuple, zbar: tuple) -> float:
    """R1222(z; zbar) = T1222(zbar) - int T122(t, x+y1) DxP*T1(tbar, xbar+y2) mu(dy1, dy2).

    ``dxp_t1`` is DxP * T1, as ``dxp_forward`` makes it from trees["T1"].
    """
    (t_idx, x_idx), (tb_idx, xb_idx) = z, zbar
    acc = twisted_at(fam, trees["T122"][t_idx], x_idx, dxp_t1[tb_idx], xb_idx)
    return float(trees["T1222"][tb_idx, xb_idx] - acc)


def increment_sums_zeros_like(K: np.ndarray, sq: np.ndarray, points, eps: float) -> np.ndarray:
    """eps^3 sum_w sq(w) (K(z - w) - K(z)) at each point z = (n, x), K zero outside its rows."""
    nk, M = K.shape
    vals = []
    for n, x in points:
        # w = (s, y) with K(z - w) inside K's rows: nk > n - s >= 0
        s = np.arange(max(0, n - nk + 1), min(n, nk - 1) + 1)
        shifted = np.zeros_like(K)
        shifted[s] = K[n - s][:, (x - np.arange(M)) % M]
        kz = K[n, x] if n < nk else 0.0
        direct = eps**3 * np.sum(sq * (shifted - kz))
        vals.append(direct)
    return np.array(vals)


def stacked(blocks, item: int = 1) -> np.ndarray:
    """Item 1 of every block of a HeatKernel pass, P or K as (rows, M); item 2 of bound_blocks, the maxima as (3, rows)."""
    return np.concatenate([block[item] for block in blocks], axis=item - 1)


def columns_whole(hk: HeatKernel, n_max: int) -> np.ndarray:
    """Rows 0..n_max of hk's kernel: the scaled delta, then the irffts of m^n on the half-spectrum in one pass."""
    n = np.arange(1, n_max + 1)
    powers = np.exp(np.multiply.outer(n, np.log(hk.multiplier[: hk.grid.M // 2 + 1])))
    delta = np.zeros((1, hk.grid.M))
    delta[0, 0] = 1.0 / hk.grid.eps
    return np.vstack([delta, np.fft.irfft(powers, n=hk.grid.M, axis=-1) / hk.grid.eps])


def cutoff_whole(r: np.ndarray) -> np.ndarray:
    """chi(r) of ``sbe.heat.smooth_cutoff``, its transition's exps taken on boolean gathers."""
    inner = 2**0.25 * CUTOFF_INNER
    s = (r - inner) / (CUTOFF_OUTER - inner)
    a, b = np.zeros_like(s), np.zeros_like(s)
    pos, neg = s > 0.0, s < 1.0
    a[pos] = np.exp(-1.0 / s[pos])
    b[neg] = np.exp(-1.0 / (1.0 - s[neg]))
    return b / (a + b)


def split_whole(hk: HeatKernel, horizon: float) -> np.ndarray:
    """hk's singular part K = chi P, each step on the whole field, chi at every site."""
    grid = hk.grid
    n_h = int(round(horizon / grid.dt))
    P = columns_whole(hk, n_h)
    t = np.arange(n_h + 1)[:, None] * grid.dt
    x = (grid.eps * modes(grid.M))[None, :]
    return cutoff_whole(smooth_parabolic_norm(t, x)) * P


def bound_maxima_whole(hk: HeatKernel, j: int, horizon: float) -> np.ndarray:
    """Row j of the per-time maxima of ``HeatKernel.bound_blocks``, each step on the whole field."""
    grid = hk.grid
    eps, M = grid.eps, grid.M
    n_h = int(round(horizon / grid.dt))
    cols = columns_whole(hk, n_h)
    spec = np.fft.rfft(cols, axis=-1)
    dmult = derivative_multiplier(hk.fam, eps, M)[: M // 2 + 1]
    vals = np.fft.irfft(spec * dmult**j, n=M, axis=-1) if j else cols
    t = np.arange(n_h + 1) * grid.dt
    t_eps = np.maximum(np.minimum(np.sqrt(t), 1.0), eps)
    x = eps * modes(M)
    keep = parabolic_norm(t[:, None], x[None, :]) <= 0.375
    weighted = np.where(keep, np.abs(vals) * t_eps[:, None] ** (1 + j), 0.0)
    return weighted.max(axis=1)


def time_convolve_whole(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows 0..n1+n2-2 of the linear convolution along axis 0, by whole-array FFTs of length L."""
    n1, n2 = a.shape[0], b.shape[0]
    L = 1
    while L < n1 + n2:
        L *= 2
    spec = np.fft.fft(a, n=L, axis=0)
    spec *= np.fft.fft(b, n=L, axis=0)
    return np.fft.ifft(spec, axis=0)[: n1 + n2 - 1]


def spacetime_convolve_whole(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """eps^3 sum_w a(w) b(z - w) on rows 0..n1+n2-2: whole half-spectra and one inverse transform."""
    r1, r2 = _occupied_rows(a), _occupied_rows(b)
    out = np.zeros((a.shape[0] + b.shape[0] - 1, grid.M))
    if r1 and r2:
        full = time_convolve_whole(np.fft.rfft(a[:r1], axis=1), np.fft.rfft(b[:r2], axis=1))
        out[: r1 + r2 - 1] = grid.eps**3 * np.fft.irfft(full, n=grid.M, axis=1)
    return out


def order_norm_whole(values: np.ndarray, grid: GridSpec, zeta: float, m: int) -> float:
    """The order-zeta norm at depth m, each forward difference and ratio on the whole field."""
    t = np.arange(values.shape[0])[:, None] * grid.dt
    x = (grid.eps * modes(grid.M))[None, :]
    zn = np.maximum(parabolic_norm(t, x), grid.eps)
    diffs = {(0, 0): values}
    if m >= 1:
        diffs[(0, 1)] = (np.roll(values, -1, axis=1) - values) / grid.eps
    if m >= 2:
        diffs[(0, 2)] = (np.roll(diffs[(0, 1)], -1, axis=1) - diffs[(0, 1)]) / grid.eps
        padded = np.vstack([values, np.zeros((1, values.shape[1]))])
        diffs[(1, 0)] = (padded[1:] - padded[:-1]) / grid.dt
    best = 0.0
    for (k0, k1), arr in diffs.items():
        order = 2 * k0 + k1
        best = max(best, float(np.max(np.abs(arr) / zn ** (zeta - order))))
    return best


def _pipeline(a: np.ndarray, b: np.ndarray, grid: GridSpec, subtracted: np.ndarray, mass: float) -> np.ndarray:
    """eps^3 sum_w a(w) b(z - w) on rows 0..n1+n2-2, minus mass times the rows of ``subtracted``.

    The output blocks of ``sbe.kernels._convolved`` put together, from a's
    and b's half-spectra written into its time-major buffer, a's rows and
    then b's; an all-zero input gives exact zeros before the subtraction.
    ``subtracted`` goes in as blocks of a third of the output's rows,
    rounded down, so that some straddle two output blocks.
    """
    r1, r2 = _occupied_rows(a), _occupied_rows(b)
    n_out, M = a.shape[0] + b.shape[0] - 1, grid.M
    out = np.zeros((n_out, M))
    if not (r1 and r2):
        out[: len(subtracted)] -= mass * subtracted
        return out
    spec = kernels._spectra(np.empty((r1 + r2) * (M + 2)), r1 + r2, M)
    spec[:r1], spec[r1:] = np.fft.rfft(a[:r1], axis=1), np.fft.rfft(b[:r2], axis=1)
    sub_blocks = ((rows, subtracted[rows]) for rows in _blocks(len(subtracted), 24 * M))
    for rows, block in kernels._convolved(spec, r1, r2, n_out, grid, sub_blocks, mass):
        out[rows] = block
    return out


def spacetime_convolve(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """eps^3 sum_w a(w) b(z - w) on rows 0..n1+n2-2, over the rows a and b occupy, by the pipeline of ``sbe.kernels``."""
    # the plain convolution subtracts nothing: no rows of b
    return _pipeline(a, b, grid, b[:0], 0.0)


def renormalized_convolve(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(R a * b)(z) = eps^3 sum_w a(w) (b(z - w) - b(z)), b zero outside its rows, by the pipeline of ``sbe.kernels``.

    The plain convolution minus the mass eps^3 sum a of a times b, as
    ``sbe.kernels.renormalized_square_check`` takes it.
    """
    return _pipeline(a, b, grid, b, float(grid.eps**3 * np.sum(a)))


def space_pairing_map(values: np.ndarray, grid: GridSpec, tf: TestFunctionFamily, lam: float) -> np.ndarray:
    """eps-weighted pairing against phi_x^lambda at every base site x."""
    spec = np.fft.fft(values, axis=-1) * np.conj(np.fft.fft(_space_kernel(tf.r, grid, lam)))
    return grid.eps * np.fft.ifft(spec, axis=-1).real


def parabolic_pairing_map(values: np.ndarray, grid: GridSpec, tf: TestFunctionFamily, lam: float):
    """Space-time pairing map and the time indices free of boundary padding.

    None when the scale's time support does not fit the horizon.
    """
    if values.ndim != 2:
        raise ValueError("parabolic pairing needs a space-time field")
    nt = values.shape[0]
    kt = _time_halfwidth(grid, lam)
    if 2 * kt + 1 > nt:
        return None
    spatial = space_pairing_map(values, grid, tf, lam)  # carries eps * lambda^-1 phi_x
    wt = _time_kernel(tf, grid, lam)
    conv = time_convolve_whole(spatial, wt[::-1, None]).real
    corr = conv[kt : kt + nt]  # linear correlation with zero padding outside
    interior = np.arange(kt, nt - kt)
    return grid.dt * corr, interior
