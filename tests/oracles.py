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
as first written: a zero kernel-sized field and a fancy index per point. The
reversed-slice loop of ``sbe.kernels._direct_sums`` must equal it bit for
bit.

``twisted_kernel_product``, ``convolve_kernels``, ``renormalized_convolve``,
``increment_bound_probe`` and ``mollification_loss_probe`` are the kernel
calculus of the paper's kernel lemmas on ``sbe.kernels.DiscreteKernel``,
the convolutions through the blocked pipeline of ``sbe.kernels``, whose
output blocks ``spacetime_convolve`` puts together on plain arrays. ``mollify``
convolves a field with the separable bump (``bump``, ``mollifier_kernel``)
on the operators' stencil engine; ``mollify_loop``, the mollifier as first
written, a double loop over the space-time stencil points with one rolled
copy of the field each, groups its sums differently, so the two must match
within rounding.

``columns_whole``, ``split_whole``, ``verify_bounds_whole``,
``time_convolve_whole``, ``spacetime_convolve_whole``, ``order_norm_whole``
and ``increment_bound_whole`` are the heat kernel, its singular part and
decay bounds, the time and space-time convolutions, the order norm and the
increment probe spelled on whole fields, one field-sized array per step,
the heat kernel's on the real half-spectrum as ``sbe.heat`` takes it. The
blocked passes of ``sbe.heat`` and ``sbe.kernels`` must equal them bit for
bit.

``space_pairing_map`` and ``parabolic_pairing_map`` pair a field with the
test functions phi_x^lambda of ``sbe.norms`` at every base site, by FFT
correlation. They are the reference that the direct sums of
``sbe.norms._pairings_at`` must match within rounding.
"""

import numpy as np

from sbe import kernels
from sbe.grids import GridSpec, NoiseField, rng_for
from sbe.heat import (
    CUTOFF_INNER,
    CUTOFF_OUTER,
    HeatKernel,
    parabolic_norm,
    smooth_cutoff,
    smooth_parabolic_norm,
)
from sbe.kernels import PROBE_SEED, SPACE_TIME_DIM, DiscreteKernel, _occupied_rows, _znorm_eps, kernel_mass, order_norm
from sbe.measures import AtomicMeasure1D, AtomicMeasure2D
from sbe.norms import TestFunctionFamily, _space_kernel, _time_halfwidth, _time_kernel
from sbe.operators import OperatorFamily, _blocks, _stencil, derivative_multiplier, modes, twisted_product
from sbe.solver import SchemeConfig, Trajectory, _escaped, _Step

# seeded grid pairs that increment_bound_probe samples
PROBE_PAIRS = 4096


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
    rows: the same bits, at a third of the cost.
    """
    step = _Step(SchemeConfig(linear_family(fam), grid))
    out = np.zeros((grid.n_steps + 1, grid.M))
    for n in range(1, grid.n_steps + 1):
        out[n] = step(out[n - 1], forcing[n - 1])
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
    dxk = stencil_apply_roll(fam.pi, 1.0 / eps, HeatKernel(grid, fam).singular_part(grid.T))
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
    k_hat = (np.fft.rfft(HeatKernel(grid, fam).singular_part(grid.T), axis=1) * dmult)[:nt]
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


def columns_whole(hk: HeatKernel, n_max: int) -> np.ndarray:
    """Rows 0..n_max of hk's kernel: the scaled delta, then the irffts of m^n on the half-spectrum in one pass."""
    n = np.arange(1, n_max + 1)
    powers = np.exp(np.multiply.outer(n, np.log(hk.multiplier[: hk.grid.M // 2 + 1])))
    delta = np.zeros((1, hk.grid.M))
    delta[0, 0] = 1.0 / hk.grid.eps
    return np.vstack([delta, np.fft.irfft(powers, n=hk.grid.M, axis=-1) / hk.grid.eps])


def split_whole(hk: HeatKernel, horizon: float) -> np.ndarray:
    """hk's singular part K = chi P, each step on the whole field."""
    grid = hk.grid
    n_h = int(round(horizon / grid.dt))
    P = columns_whole(hk, n_h)
    t = np.arange(n_h + 1)[:, None] * grid.dt
    x = (grid.eps * modes(grid.M))[None, :]
    rho = smooth_parabolic_norm(t, x)
    chi = smooth_cutoff(rho, inner=2**0.25 * CUTOFF_INNER, outer=CUTOFF_OUTER)
    return chi * P


def verify_bounds_whole(hk: HeatKernel, j: int, horizon: float) -> np.ndarray:
    """The per-time maxima of the order-j diagnostic of ``HeatKernel.verify_bounds``, each step on the whole field."""
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


def increment_bound_whole(values: np.ndarray, grid: GridSpec, zeta: float, kappa: float) -> float:
    """``increment_bound_probe`` reading its z-norms from the whole (nt, M) z-norm field."""
    nt, M = values.shape
    gen = rng_for(PROBE_SEED, 90)
    t = np.arange(nt)[:, None] * grid.dt
    x = (grid.eps * modes(M))[None, :]
    zn = np.maximum(parabolic_norm(t, x), grid.eps)
    i1 = gen.integers(0, nt, PROBE_PAIRS)
    j1 = gen.integers(0, M, PROBE_PAIRS)
    i2 = gen.integers(0, nt, PROBE_PAIRS)
    j2 = gen.integers(0, M, PROBE_PAIRS)
    same = (i1 == i2) & (j1 == j2)
    i2[same] = (i2[same] + 1) % nt
    num = np.abs(values[i1, j1] - values[i2, j2])
    dt_gap = np.abs(i1 - i2) * grid.dt
    dx_gap = np.abs((grid.eps * modes(M))[(j1 - j2) % M])
    sep = np.maximum(parabolic_norm(dt_gap, dx_gap), grid.eps)
    denom = sep**kappa * (zn[i1, j1] ** (zeta - kappa) + zn[i2, j2] ** (zeta - kappa))
    return float(np.max(num / denom))


def twisted_kernel_product(k1: DiscreteKernel, k2: DiscreteKernel, mu: AtomicMeasure2D) -> DiscreteKernel:
    """Slice-wise twisted product under mu, the shorter kernel zero-padded in time; claimed order adds."""
    if k1.grid != k2.grid:
        raise ValueError("kernels live on different grids")
    rows = max(k1.values.shape[0], k2.values.shape[0])
    a, b = np.zeros((rows, k1.grid.M)), np.zeros((rows, k2.grid.M))
    a[: k1.values.shape[0]] = k1.values
    b[: k2.values.shape[0]] = k2.values
    return DiscreteKernel(twisted_product(mu, a, b), k1.grid, k1.claimed_order + k2.claimed_order)


def _pipeline(a: np.ndarray, b: np.ndarray, grid: GridSpec, mass=None) -> np.ndarray:
    """eps^3 sum_w a(w) b(z - w) on rows 0..n1+n2-2, minus mass times b if a mass is given.

    The output blocks of ``sbe.kernels._convolved`` put together, from a's
    and b's half-spectra written into its frequency-major buffer a block of
    rows at a time; an all-zero input gives exact zeros.
    """
    r1, r2 = _occupied_rows(a), _occupied_rows(b)
    n_out, M = a.shape[0] + b.shape[0] - 1, grid.M
    out = np.zeros((n_out, M))
    if not (r1 and r2):
        if mass is not None:
            out[: b.shape[0]] -= mass * b
        return out
    spec = kernels._spectra(np.empty(2 * kernels._time_length(r1 + r2) * (M // 2 + 1)), r1, r2, M)
    for rows in _blocks(max(r1, r2), 16 * M):
        for x, r, offset in ((a, r1, 0), (b, r2, r1)):
            if rows.start < r:
                x_hat = np.fft.rfft(x[rows.start : min(rows.stop, r)], axis=1)
                spec[:, offset + rows.start : offset + rows.start + len(x_hat)] = x_hat.T
    # the plain convolution subtracts nothing: no rows of b
    subtracted, mass = (b[:0], 0.0) if mass is None else (b, mass)
    for rows, block in kernels._convolved(spec, r1, r2, n_out, grid, subtracted, mass):
        out[rows] = block
    return out


def spacetime_convolve(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """eps^3 sum_w a(w) b(z - w) on rows 0..n1+n2-2, over the rows a and b occupy, by the pipeline of ``sbe.kernels``."""
    return _pipeline(a, b, grid)


def convolve_kernels(k1: DiscreteKernel, k2: DiscreteKernel) -> DiscreteKernel:
    """eps^3-weighted space-time convolution by ``spacetime_convolve``; claimed order gains |s| = 3."""
    if k1.grid != k2.grid:
        raise ValueError("kernels live on different grids")
    vals = spacetime_convolve(k1.values, k2.values, k1.grid)
    return DiscreteKernel(vals, k1.grid, k1.claimed_order + k2.claimed_order + SPACE_TIME_DIM)


def renormalized_convolve(k1: DiscreteKernel, k2: DiscreteKernel) -> DiscreteKernel:
    """(R K1 * K2)(z) = eps^3 sum_w K1(w) (K2(z - w) - K2(z)), by the FFT route of the square check.

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
    vals = _pipeline(k1.values, k2.values, k1.grid, kernel_mass(k1))
    return DiscreteKernel(vals, k1.grid, z1 + z2 + SPACE_TIME_DIM)


def increment_bound_probe(k: DiscreteKernel, kappa: float) -> float:
    """Empirical sup of |K(z) - K(zbar)| / (|z-zbar|^kappa (|z|^(z-k) + |zbar|^(z-k))).

    Sampled over PROBE_PAIRS seeded random grid pairs, with |z|_{s,eps} taken
    at the sampled points only; kappa = 0 collapses to the
    triangle-inequality consequence of the order norm.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    grid = k.grid
    nt, M = k.values.shape
    gen = rng_for(PROBE_SEED, 90)
    zeta = k.claimed_order
    i1 = gen.integers(0, nt, PROBE_PAIRS)
    j1 = gen.integers(0, M, PROBE_PAIRS)
    i2 = gen.integers(0, nt, PROBE_PAIRS)
    j2 = gen.integers(0, M, PROBE_PAIRS)
    same = (i1 == i2) & (j1 == j2)
    i2[same] = (i2[same] + 1) % nt
    num = np.abs(k.values[i1, j1] - k.values[i2, j2])
    x = grid.eps * modes(M)
    dt_gap = np.abs(i1 - i2) * grid.dt
    dx_gap = np.abs(x[(j1 - j2) % M])
    sep = np.maximum(parabolic_norm(dt_gap, dx_gap), grid.eps)
    denom = sep**kappa * (_znorm_eps(i1, x[j1], grid) ** (zeta - kappa) + _znorm_eps(i2, x[j2], grid) ** (zeta - kappa))
    return float(np.max(num / denom))


def mollification_loss_probe(k: DiscreteKernel, eps_bar_cells: int, kappa: float) -> float:
    """order_norm(K - K_mollified, zeta - kappa) / eps_bar^kappa, at depth 0.

    The mollifier is the parabolic rescaling of the smooth bump to
    eps_bar = eps_bar_cells * eps, sampled on the grid with discrete mass
    one: ``mollify`` at radii (cells^2 - 1, cells - 1), the last cells
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


def bump(r: np.ndarray) -> np.ndarray:
    """Smooth bump exp(-1/(1-r^2)) on |r| < 1, zero outside (unnormalized)."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


def mollifier_kernel(rt: int, rs: int) -> tuple[np.ndarray, np.ndarray]:
    """The time and space factors of the tensor-product bump sampled on grid cells, each of unit sum.

    Each direction rescales the bump by radius + 1, where it first vanishes,
    so radius 0 is the one weight 1.
    """
    wt = bump(np.arange(-rt, rt + 1) / (rt + 1.0))
    wx = bump(np.arange(-rs, rs + 1) / (rs + 1.0))
    return wt / wt.sum(), wx / wx.sum()


def mollify(values: np.ndarray, grid: GridSpec, radius_cells_time: int, radius_cells_space: int) -> np.ndarray:
    """Space-time convolution of a time-major (rows, M) field with the bump of unit discrete mass.

    The bump is the tensor product of ``mollifier_kernel``'s factors, so one
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
    wt, wx = mollifier_kernel(rt, rs)
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


def mollify_loop(values: np.ndarray, grid: GridSpec, rt: int, rs: int) -> np.ndarray:
    """eps^3-weighted space-time convolution with the bump, one rolled copy per stencil point.

    The weights are the tensor-product bump, each direction rescaled by
    radius + 1, sampled on grid cells with discrete mass eps^3 sum = 1;
    space wraps around the torus and time is zero-padded outside the rows.
    """
    wt = bump(np.arange(-rt, rt + 1) / (rt + 1.0)) if rt > 0 else np.ones(1)
    wx = bump(np.arange(-rs, rs + 1) / (rs + 1.0)) if rs > 0 else np.ones(1)
    w = np.outer(wt, wx)
    w /= grid.eps**3 * w.sum()
    nt = values.shape[0]
    padded = np.pad(values, ((rt, rt), (0, 0)))
    out = np.zeros_like(values)
    for a in range(-rt, rt + 1):
        for b in range(-rs, rs + 1):
            # padded rows rt + a.. are the values a steps later, zero past the ends
            out += w[a + rt, b + rs] * np.roll(padded[rt + a : rt + a + nt], -b, axis=1)
    return grid.eps**3 * out


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
