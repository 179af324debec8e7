"""Discrete Laplacian, derivative and twisted product, and their multipliers.

All three operators act on periodic fields through the family's atomic
measures:

    lap u(x)  = 1/(2 nu_bar eps^2) * sum_j nu(j)  u(x + eps j)
    der u(x)  = 1/eps              * sum_j pi(j)  u(x + eps j)
    B(f,g)(x) =                      sum_{j1,j2} mu(j1,j2) f(x+eps j1) g(x+eps j2)

The DFT convention carries the eps weight on the forward transform,
F u(k) = eps * sum_x u(x) e^{-2 pi i k x}, with the inverse being the plain
mode sum; on the torus the modes are the integers in [-M/2, M/2). Twisted
Parseval: eps * sum_x B(f,g) = sum_k F f(k) F g(-k) mu_hat(-eps k, eps k).
The operators are evaluated as one shift-and-sum stencil over the atoms
(twisted_product sums the g stencil once per first offset of mu); the
Fourier side supplies their multipliers and the time convolution the other
layers share.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .grids import _shift
from .measures import (
    AtomicMeasure1D,
    AtomicMeasure2D,
    fourier_mu,
    fourier_nu,
    fourier_pi,
    validate_mu,
    validate_nu,
    validate_pi,
)

__all__ = [
    "OperatorFamily",
    "laplacian",
    "derivative",
    "twisted_product",
    "modes",
    "stepping_multiplier",
    "derivative_multiplier",
    "time_convolve",
    "check_parseval_twisted",
]


@dataclass(frozen=True)
class OperatorFamily:
    """Validated (nu, pi, mu) triple with the total variation nu_bar cached."""

    nu: AtomicMeasure1D
    pi: AtomicMeasure1D
    mu: AtomicMeasure2D
    nu_bar: float = 0.0

    def __post_init__(self):
        problems = []
        for label, report in (
            ("nu", validate_nu(self.nu)),
            ("pi", validate_pi(self.pi)),
            ("mu", validate_mu(self.mu)),
        ):
            problems += [f"{label}.{v.check}={v.measured:g}" for v in report.violations]
        if problems:
            raise ValueError("inadmissible family: " + "; ".join(problems))
        object.__setattr__(self, "nu_bar", self.nu.total_variation())

    def fingerprint(self) -> str:
        blob = "|".join([self.nu.canonical(), self.pi.canonical(), self.mu.canonical()])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _periodic(measure, u) -> np.ndarray:
    """u as float64, once the measure's support is known not to wrap the torus."""
    u = np.asarray(u, dtype=np.float64)
    if measure.radius >= u.shape[-1] / 2:
        raise ValueError(f"measure radius {measure.radius} wraps on M={u.shape[-1]} torus")
    return u


def _stencil(atoms, u: np.ndarray) -> np.ndarray:
    """sum_j w_j u(. + eps j) along the last axis, added in atom order."""
    out = np.zeros_like(u)
    for j, w in atoms:
        out += w * _shift(u, j)
    return out


def modes(M: int) -> np.ndarray:
    """Integer torus frequencies in FFT order: 0..M/2-1, -M/2..-1."""
    return np.rint(np.fft.fftfreq(M) * M).astype(np.int64)


def stepping_multiplier(fam: OperatorFamily, eps: float, M: int) -> np.ndarray:
    """m(k) = 1 + nu_hat(eps k) / (2 nu_bar) over FFT-ordered modes.

    One explicit heat step u + eps^2 lap u multiplies mode k by m(k).
    """
    return 1.0 + fourier_nu(fam.nu, eps * modes(M)) / (2.0 * fam.nu_bar)


def derivative_multiplier(fam: OperatorFamily, eps: float, M: int) -> np.ndarray:
    """Eigenvalues pi_hat(-eps k) / eps over FFT-ordered modes."""
    k = modes(M)
    return fourier_pi(fam.pi, -eps * k) / eps


def time_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution along axis 0, zero-padded to a power of two.

    Returns rows 0..n1+n2-2 of sum_s a[s] b[n - s] as complex values; the
    trailing axes broadcast, so a (n, 1) view of 1-d weights is enough.
    """
    n1, n2 = a.shape[0], b.shape[0]
    L = 1
    while L < n1 + n2:
        L *= 2
    spec = np.fft.fft(a, n=L, axis=0)
    spec *= np.fft.fft(b, n=L, axis=0)
    return np.fft.ifft(spec, axis=0)[: n1 + n2 - 1]


def laplacian(fam: OperatorFamily, u: np.ndarray, eps: float) -> np.ndarray:
    """Periodic discrete Laplacian of one slice (or along the last axis)."""
    return 1.0 / (2.0 * fam.nu_bar * eps**2) * _stencil(fam.nu.atoms, _periodic(fam.nu, u))


def derivative(fam: OperatorFamily, u: np.ndarray, eps: float) -> np.ndarray:
    """Periodic discrete derivative; output has exact zero spatial mean."""
    return 1.0 / eps * _stencil(fam.pi.atoms, _periodic(fam.pi, u))


def twisted_product(mu: AtomicMeasure2D, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """B(f, g) under mu; bilinear, symmetric when mu is exchange-symmetric.

    mu's atoms are sorted, so groupby meets each first offset j1 once.
    """
    f = _periodic(mu, f)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape:
        raise ValueError("twisted product needs matching shapes")
    out = np.zeros_like(f)
    for j1, run in groupby(mu.atoms, key=lambda atom: atom[0][0]):
        # one statement, so no run's field-sized temporaries outlive it
        out += _stencil([(j2, w) for (_, j2), w in run], g) * _shift(f, j1)
    return out


def check_parseval_twisted(fam: OperatorFamily, f: np.ndarray, g: np.ndarray, eps: float) -> float:
    """Residual of the twisted Parseval identity (torus mode sum form)."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    M = f.shape[-1]
    lhs = eps * np.sum(twisted_product(fam.mu, f, g))
    Ff = eps * np.fft.fft(f, axis=-1)
    Fg = eps * np.fft.fft(g, axis=-1)
    k = modes(M)
    Fg_neg = Fg[(-k) % M]
    mu_hat = fourier_mu(fam.mu, -eps * k, eps * k)
    rhs = np.sum(Ff * Fg_neg * mu_hat)
    return float(abs(lhs - rhs))
