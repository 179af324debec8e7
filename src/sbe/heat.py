"""Space-time discrete heat kernel, its explicit step and the split.

The kernel solves the explicit-Euler heat equation from an eps^-1 Kronecker
delta, so each column is the inverse DFT of m(k)^n with the stepping
multiplier m(k) = 1 + nu_hat(eps k)/(2 nu_bar), n = t/eps^2. Admissible nu
pins m into [1/2, 1], which is the stability certificate of the scheme.
The singular/smooth split multiplies by a smooth cutoff in the parabolic
distance, with radii (1/4, 1/2) so the singular part fits in one torus
period.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec
from .operators import OperatorFamily, derivative_multiplier, laplacian, stepping_multiplier

__all__ = ["HeatKernel", "KernelSplit", "BoundsDiagnostic", "smooth_cutoff", "parabolic_norm"]

CUTOFF_INNER = 0.25
CUTOFF_OUTER = 0.5


def _transition(s: np.ndarray) -> np.ndarray:
    """C-infinity step: 1 for s <= 0, 0 for s >= 1."""
    s = np.asarray(s, dtype=np.float64)
    a = np.zeros_like(s)
    b = np.zeros_like(s)
    pos = s > 0.0
    neg = s < 1.0
    a[pos] = np.exp(-1.0 / s[pos])
    b[neg] = np.exp(-1.0 / (1.0 - s[neg]))
    return b / (a + b)


def smooth_cutoff(r, inner: float = CUTOFF_INNER, outer: float = CUTOFF_OUTER) -> np.ndarray:
    """chi(r): identically 1 on [0, inner], identically 0 on [outer, inf)."""
    return _transition((np.asarray(r, dtype=np.float64) - inner) / (outer - inner))


def smooth_parabolic_norm(t, x) -> np.ndarray:
    """(t^2 + x^4)^(1/4): smooth away from 0, within 2^(1/4) of |z|_s.

    The parabolic max-norm itself has a gradient kink along sqrt(t) = |x|;
    cutting off along it would cost a whole power of eps in the split
    kernel's second differences, so the cutoff uses this surrogate.
    """
    return (np.asarray(t, dtype=np.float64) ** 2 + np.asarray(x, dtype=np.float64) ** 4) ** 0.25


def signed_torus_coordinate(M: int, eps: float) -> np.ndarray:
    """Site coordinates folded to [-1/2, 1/2)."""
    i = np.arange(M)
    return (((i + M // 2) % M) - M // 2) * eps


def parabolic_norm(t, x) -> np.ndarray:
    """|z|_s = sqrt(|t|) v |x| with x already a signed torus coordinate."""
    return np.maximum(np.sqrt(np.abs(t)), np.abs(x))


@dataclass
class HeatKernel:
    grid: GridSpec
    fam: OperatorFamily
    multiplier: np.ndarray = field(init=False)

    def __post_init__(self):
        eps, M = self.grid.eps, self.grid.M
        m = stepping_multiplier(self.fam, eps, M)
        if not (abs(m[0] - 1.0) < 1e-12 and m.min() >= 0.5 - 1e-12 and m.max() <= 1.0 + 1e-12):
            raise ValueError("stepping multiplier left [1/2, 1]; family inadmissible")
        self.multiplier = m
        delta = np.zeros((1, M))
        delta[0, 0] = 1.0 / eps
        self._columns = delta  # row n holds P at t = n eps^2

    @property
    def marginally_oscillatory(self) -> bool:
        """True when min m(k) < 0.55: the Nyquist mode barely damps."""
        return bool(self.multiplier.min() < 0.55)

    def columns(self, n_max: int) -> np.ndarray:
        """Rows 0..n_max of the kernel, cached; memory is M*(n_max+1) reals."""
        if n_max >= self._columns.shape[0]:
            n = np.arange(self._columns.shape[0], n_max + 1)
            powers = np.exp(np.multiply.outer(n, np.log(self.multiplier)))
            new = np.fft.ifft(powers, axis=-1).real / self.grid.eps
            self._columns = np.vstack([self._columns, new])
        return self._columns[: n_max + 1]

    def step(self, u: np.ndarray) -> np.ndarray:
        """One explicit Euler step u + eps^2 lap u, by the stencil.

        Exact dyadic arithmetic for dyadic-weight families; in Fourier it
        multiplies mode k by the stepping multiplier m(k).
        """
        u = np.asarray(u, dtype=np.float64)
        return u + self.grid.dt * laplacian(self.fam, u, self.grid.eps)

    def split(self, horizon: float) -> "KernelSplit":
        """Cutoff split K = chi P, K_hat = P - K with torus-adapted radii.

        chi is smooth in z (a transition in the smooth parabolic-norm
        surrogate); its radii are calibrated so that K equals P on
        |z|_s <= cutoff_inner and vanishes for |z|_s > cutoff_outer.
        """
        if horizon > self.grid.T + 1e-12:
            raise ValueError("split horizon exceeds grid horizon")
        n_h = int(round(horizon / self.grid.dt))
        P = self.columns(n_h)
        t = np.arange(n_h + 1)[:, None] * self.grid.dt
        x = signed_torus_coordinate(self.grid.M, self.grid.eps)[None, :]
        rho = smooth_parabolic_norm(t, x)
        chi = smooth_cutoff(rho, inner=2**0.25 * CUTOFF_INNER, outer=CUTOFF_OUTER)
        K = chi * P
        return KernelSplit(K=K, K_hat=P - K, cutoff_inner=CUTOFF_INNER, cutoff_outer=CUTOFF_OUTER, grid=self.grid)

    def verify_bounds(self, j: int, horizon: float) -> "BoundsDiagnostic":
        """Empirical check of |D_x^j P_t(x)| * |t|_eps^(1+j) staying bounded.

        Samples grid points with |z|_s <= 3/8 to stay clear of the torus
        wraparound; an N-stable value certifies the decay bound.
        """
        if j not in (0, 1, 2):
            raise ValueError("j must be 0, 1 or 2")
        eps, M = self.grid.eps, self.grid.M
        n_h = int(round(horizon / self.grid.dt))
        cols = self.columns(n_h)
        spec = np.fft.fft(cols, axis=-1)
        dmult = derivative_multiplier(self.fam, eps, M)
        vals = np.fft.ifft(spec * dmult**j, axis=-1).real if j else cols
        t = np.arange(n_h + 1) * self.grid.dt
        t_eps = np.maximum(np.minimum(np.sqrt(t), 1.0), eps)
        x = signed_torus_coordinate(M, eps)
        keep = parabolic_norm(t[:, None], x[None, :]) <= 0.375
        weighted = np.where(keep, np.abs(vals) * t_eps[:, None] ** (1 + j), 0.0)
        per_t = weighted.max(axis=1)
        return BoundsDiagnostic(j=j, times=t, per_time_max=per_t, sup=float(per_t.max()))


@dataclass(frozen=True)
class KernelSplit:
    K: np.ndarray
    K_hat: np.ndarray
    cutoff_inner: float
    cutoff_outer: float
    grid: GridSpec


@dataclass(frozen=True)
class BoundsDiagnostic:
    j: int
    times: np.ndarray
    per_time_max: np.ndarray
    sup: float
