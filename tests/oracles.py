"""Test oracles: deliberately slow re-derivations of library results.

``mild_oracle`` evaluates the explicit scheme in its mild (Duhamel) form,
quadratic in the step count, so that the stepping solver can be checked
against an independent spelling of the same recurrence.
"""

import numpy as np

from sbe.grids import NoiseField
from sbe.heat import HeatKernel
from sbe.operators import derivative_multiplier, twisted_product
from sbe.solver import SchemeConfig, Trajectory, _escaped


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
    traj = Trajectory(snapshots=snaps, seed=noise.seed)
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
