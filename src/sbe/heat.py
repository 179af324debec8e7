"""Space-time discrete heat kernel, its explicit step and its singular part.

The kernel solves the explicit-Euler heat equation from an eps^-1 Kronecker
delta, so each column is the inverse DFT of m(k)^n with the stepping
multiplier m(k) = 1 + nu_hat(eps k)/(2 nu_bar), n = t/eps^2. Admissible nu
pins m into [1/2, 1], which is the stability certificate of the scheme.
The singular part K multiplies P by a smooth cutoff in the parabolic
distance, with radii (1/4, 1/2) so that K fits in one torus period.

P is real, so row n is the irfft of m^n on the half-spectrum (rfft modes
0..M/2), as in ``kernels`` and ``processes``. ``HeatKernel.row_blocks``
makes P one block of about operators._BLOCK_BYTES of rows at a time for
every pass (the columns, the cutoff, the decay bounds and the heat-kernel
experiment), and a ``HeatKernel`` keeps no rows between calls;
``singular_blocks`` cuts each block off as it comes, so that the
renormalized-square check of ``kernels`` can make K again where it reads
it; the cutoff reads x only through x^4, so it is taken on the M/2 + 1
distinct |x| and mirrored. ``bound_blocks`` adds each block's per-time
maxima of the decay bounds, all three derivative orders from its
half-spectrum, so that ``diagnostics`` makes each row once.
Each step is elementwise, per row or a per-row max, so the results equal
the whole-field passes bit for bit. Every horizon is a whole number of
steps in [0, T].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec
from .operators import OperatorFamily, _blocks, derivative_multiplier, laplacian, modes, stepping_multiplier

__all__ = ["HeatKernel", "BoundsDiagnostic", "smooth_cutoff", "parabolic_norm"]

CUTOFF_INNER = 0.25
CUTOFF_OUTER = 0.5


def _transition(s: np.ndarray) -> np.ndarray:
    """C-infinity step: 1 for s <= 0, 0 for s >= 1."""
    s = np.asarray(s, dtype=np.float64)
    a, b = np.zeros_like(s), np.zeros_like(s)
    pos, neg = s > 0.0, s < 1.0
    np.exp(np.divide(-1.0, s, out=a, where=pos), out=a, where=pos)
    np.exp(np.divide(-1.0, np.subtract(1.0, s, out=b, where=neg), out=b, where=neg), out=b, where=neg)
    return b / (a + b)


def smooth_cutoff(r) -> np.ndarray:
    """chi(r): identically 1 on [0, 2^(1/4) CUTOFF_INNER], identically 0 on [CUTOFF_OUTER, inf)."""
    inner = 2**0.25 * CUTOFF_INNER
    return _transition((np.asarray(r, dtype=np.float64) - inner) / (CUTOFF_OUTER - inner))


def smooth_parabolic_norm(t, x) -> np.ndarray:
    """(t^2 + x^4)^(1/4): smooth away from 0, within 2^(1/4) of |z|_s.

    The parabolic max-norm itself has a gradient kink along sqrt(t) = |x|;
    cutting off along it would cost a whole power of eps in the split
    kernel's second differences, so the cutoff uses this surrogate.
    """
    return (np.asarray(t, dtype=np.float64) ** 2 + np.asarray(x, dtype=np.float64) ** 4) ** 0.25


def parabolic_norm(t, x) -> np.ndarray:
    """|z|_s = sqrt(|t|) v |x| with x already a signed torus coordinate."""
    return np.maximum(np.sqrt(np.abs(t)), np.abs(x))


@dataclass
class HeatKernel:
    grid: GridSpec
    fam: OperatorFamily
    multiplier: np.ndarray = field(init=False)

    def __post_init__(self):
        m = stepping_multiplier(self.fam, self.grid.eps, self.grid.M)
        if not (abs(m[0] - 1.0) < 1e-12 and m.min() >= 0.5 - 1e-12 and m.max() <= 1.0 + 1e-12):
            raise ValueError("stepping multiplier left [1/2, 1]; family inadmissible")
        self.multiplier = m

    @property
    def marginally_oscillatory(self) -> bool:
        """True when min m(k) < 0.55: the Nyquist mode barely damps."""
        return bool(self.multiplier.min() < 0.55)

    def _steps(self, horizon: float) -> int:
        """The time rows horizon / eps^2 up to a horizon, a whole number of steps in [0, T]."""
        if not 0.0 <= horizon <= self.grid.T + 1e-12:
            raise ValueError(f"horizon {horizon} outside [0, T] with T = {self.grid.T}")
        steps = horizon / self.grid.dt
        if abs(steps - round(steps)) > 1e-9:  # GridSpec's tolerance on T
            raise ValueError(f"horizon {horizon} is not a multiple of dt={self.grid.dt}")
        return round(steps)

    def _rows(self, rows: slice) -> np.ndarray:
        """A block of rows of the kernel in a new array: row n is the inverse DFT of m^n over eps.

        Row 0 is the eps^-1 delta exactly: m^0 = 1, and the irfft of a
        constant on M = 2^N points has exact zeros.
        """
        n = np.arange(rows.start, rows.stop)
        powers = np.exp(np.multiply.outer(n, np.log(self.multiplier[: self.grid.M // 2 + 1])))
        return np.fft.irfft(powers, n=self.grid.M, axis=-1) / self.grid.eps

    def row_blocks(self, horizon: float):
        """The kernel's rows up to a horizon as new blocks (rows, block) in order; the horizon is checked first."""
        n_h = self._steps(horizon)
        return ((rows, self._rows(rows)) for rows in _blocks(n_h + 1, 16 * self.grid.M))

    def columns(self, n_max: int) -> np.ndarray:
        """Rows 0..n_max of the kernel, n_max eps^2 <= T, in a new array (row n holds P at t = n eps^2)."""
        blocks = self.row_blocks(n_max * self.grid.dt)
        P = np.empty((n_max + 1, self.grid.M))
        for rows, block in blocks:
            P[rows] = block
        return P

    def step(self, u: np.ndarray) -> np.ndarray:
        """One explicit Euler step u + eps^2 lap u, by the stencil.

        Exact dyadic arithmetic for dyadic-weight families; in Fourier it
        multiplies mode k by the stepping multiplier m(k).
        """
        u = np.asarray(u, dtype=np.float64)
        return u + self.grid.dt * laplacian(self.fam, u, self.grid.eps)

    def singular_blocks(self, horizon: float):
        """The singular part K = chi P of the kernel up to a horizon as new blocks (rows, block) in order; the horizon is checked first.

        chi is smooth in z (a transition in the smooth parabolic-norm
        surrogate); its radii are calibrated so that K equals P on
        |z|_s <= CUTOFF_INNER and vanishes for |z|_s > CUTOFF_OUTER. chi
        reads x only through x^4, so it is taken on the M/2 + 1 sites
        x = 0 .. M/2 eps and mirrored onto the rest; each block of P is
        multiplied by it in place.
        """
        M = self.grid.M
        blocks = self.row_blocks(horizon)
        half = self.grid.eps * np.arange(M // 2 + 1)

        def cut(rows: slice, P: np.ndarray) -> np.ndarray:
            chi = smooth_cutoff(smooth_parabolic_norm(np.arange(rows.start, rows.stop)[:, None] * self.grid.dt, half))
            P[:, : M // 2 + 1] *= chi
            P[:, M // 2 + 1 :] *= chi[:, M // 2 - 1 : 0 : -1]  # sites -(M/2 - 1) .. -1
            return P

        return ((rows, cut(rows, P)) for rows, P in blocks)

    def singular_part(self, horizon: float) -> np.ndarray:
        """The singular part K = chi P of the kernel up to a horizon (``singular_blocks``) in a new array, the one field held."""
        K = np.empty((self._steps(horizon) + 1, self.grid.M))
        for rows, block in self.singular_blocks(horizon):
            K[rows] = block
        return K

    def bound_blocks(self, horizon: float):
        """The kernel's rows up to a horizon as new blocks (rows, block, maxima) in order; the horizon is checked first.

        maxima holds the block's per-time maxima of |D_x^j P_t(x)| *
        |t|_eps^(1+j) for j = 0, 1, 2 in its three rows, over the grid points
        with |z|_s <= 3/8, clear of the torus wraparound; the block's
        half-spectrum gives D_x P and D_x^2 P.
        """
        eps, M = self.grid.eps, self.grid.M
        blocks = self.row_blocks(horizon)
        dmult = derivative_multiplier(self.fam, eps, M)[: M // 2 + 1]
        x = eps * modes(M)

        def maxima(rows: slice, P: np.ndarray) -> np.ndarray:
            t = np.arange(rows.start, rows.stop) * self.grid.dt
            t_eps = np.maximum(np.minimum(np.sqrt(t), 1.0), eps)
            keep = parabolic_norm(t[:, None], x[None, :]) <= 0.375
            spec = np.fft.rfft(P, axis=-1)
            out = np.empty((3, len(P)))
            for j in (0, 1, 2):
                vals = np.fft.irfft(spec * dmult**j, n=M, axis=-1) if j else P
                out[j] = np.where(keep, np.abs(vals) * t_eps[:, None] ** (1 + j), 0.0).max(axis=1)
            return out

        return ((rows, P, maxima(rows, P)) for rows, P in blocks)

    def diagnostics(self, sink) -> list[tuple[str, float]]:
        """The heat-kernel experiment's (quantity, value) rows up to T; each block of P goes to sink(block)."""
        grid, n = self.grid, self.grid.n_steps
        n_half = n // 2
        mass_error, kept, decay = 0.0, {}, np.full(3, -np.inf)
        for rows, P, maxima in self.bound_blocks(grid.T):
            sink(P)
            mass_error = max(mass_error, float(np.max(np.abs(grid.eps * P.sum(axis=1) - 1.0))))
            np.maximum(decay, maxima.max(axis=1), out=decay)
            for r in (n_half, n - n_half, n):
                if rows.start <= r < rows.stop:
                    kept[r] = P[r - rows.start].copy()
        semi = 0.0
        if n_half >= 1:
            conv = grid.eps * np.fft.irfft(np.fft.rfft(kept[n_half]) * np.fft.rfft(kept[n - n_half]), n=grid.M)
            semi = float(np.max(np.abs(conv - kept[n])))
        rows = [("mass_max_error", mass_error), ("semigroup_residual", semi)]
        rows += [("multiplier_min", float(self.multiplier.min())), ("multiplier_max", float(self.multiplier.max()))]
        return rows + [(f"decay_bound_sup_j{j}", float(decay[j])) for j in (0, 1, 2)]

    def verify_bounds(self, horizon: float) -> tuple["BoundsDiagnostic", ...]:
        """Empirical check of |D_x^j P_t(x)| * |t|_eps^(1+j) staying bounded, for j = 0, 1, 2 in order.

        Samples grid points with |z|_s <= 3/8 to stay clear of the torus
        wraparound; an N-stable value certifies the decay bound. The
        per-time maxima come from ``bound_blocks``, so no field is held.
        """
        t = np.arange(self._steps(horizon) + 1) * self.grid.dt
        per_t = np.empty((3, len(t)))
        for rows, _, maxima in self.bound_blocks(horizon):
            per_t[:, rows] = maxima
        return tuple(BoundsDiagnostic(j=j, times=t, per_time_max=per_t[j], sup=float(per_t[j].max())) for j in (0, 1, 2))


@dataclass(frozen=True)
class BoundsDiagnostic:
    j: int
    times: np.ndarray
    per_time_max: np.ndarray
    sup: float
