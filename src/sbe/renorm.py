"""Renormalization constants by two independent routes.

c2 is the diverging zero-chaos mean of the squared linear response; it is
computed (a) by composite Gauss-Legendre quadrature of the spectral
integrand

    eps^-1 * int_{-1/2}^{1/2} |g(k)|^2 4 nu_bar^2
             / (f(k) (4 nu_bar + nu_hat(k))) * mu_hat(-k, k) dk

and (b) as the exact stationary lattice value: for each nonzero torus mode
the geometric series in the squared stepping multiplier, weighted by
|pi_hat(eps k)|^2 and mu_hat(-eps k, eps k). Route (b) is the exact
expectation for the simulated periodic system and the route of
``compute_constants``, whose pair the tree lift subtracts; the solver never
reads c2, and its renormalized drift is -4 c21 with c21 by quadrature. c21
is eps-independent; its quadrature integrand has a removable singularity at
k = 0 (the odd part of g(-k) mu_hat(-k, 0) vanishes linearly) and its
mode-sum route evaluates the same even integrand on torus modes, which
amounts to the closed geometric-series identity
sum n (1-x)^{2n} = (1-x)^2 / (x^2 (2-x)^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grids import GridSpec
from .measures import TAYLOR_THRESHOLD, f_of_k, fourier_mu, fourier_nu, fourier_pi, g_of_k
from .operators import OperatorFamily, modes, stepping_multiplier

__all__ = [
    "RenormConstants",
    "compute_constants",
    "c2_quadrature",
    "c2_lattice_sum",
    "c21",
]

# Gauss-Legendre nodes of the c2 and c21 quadrature routes, in equal panels
QUAD_NODES = 2048
QUAD_PANELS = 16


@dataclass(frozen=True)
class RenormConstants:
    """The (c2, c21) pair for one family and grid, with provenance."""

    c2: float
    c21: float
    grid_N: int
    family_fingerprint: str


def compute_constants(fam: OperatorFamily, grid: GridSpec) -> RenormConstants:
    """c2 by ``c2_lattice_sum`` and c21 by its mode sum."""
    return RenormConstants(
        c2=c2_lattice_sum(fam, grid),
        c21=c21(fam, method="mode_sum", grid=grid),
        grid_N=grid.N,
        family_fingerprint=fam.fingerprint(),
    )


def _gl_nodes(n_nodes: int):
    """Composite Gauss-Legendre rule on [-1/2, 1/2] in QUAD_PANELS panels."""
    per = max(2, n_nodes // QUAD_PANELS)
    base_x, base_w = leggauss(per)
    edges = np.linspace(-0.5, 0.5, QUAD_PANELS + 1)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs.append(0.5 * (a + b) + half * base_x)
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def _denominator_guard(fam: OperatorFamily, nu_hat: np.ndarray):
    if np.min(np.abs(4.0 * fam.nu_bar + nu_hat)) < 1e-9:
        raise ValueError("degenerate family: 4 nu_bar + nu_hat vanishes")


def _c2_integrand(fam: OperatorFamily, k: np.ndarray) -> np.ndarray:
    nu_hat = fourier_nu(fam.nu, k)
    _denominator_guard(fam, nu_hat)
    g = g_of_k(fam.pi, k)
    f = f_of_k(fam.nu, k)
    mu_diag = fourier_mu(fam.mu, -k, k).real
    return np.abs(g) ** 2 * (4.0 * fam.nu_bar**2) / (f * (4.0 * fam.nu_bar + nu_hat)) * mu_diag


def c2_quadrature(fam: OperatorFamily, grid: GridSpec) -> float:
    k, w = _gl_nodes(QUAD_NODES)
    return float(np.sum(w * _c2_integrand(fam, k)) / grid.eps)


def c2_lattice_sum(fam: OperatorFamily, grid: GridSpec) -> float:
    """Exact stationary mean of B(X1, X1)(0) on the torus.

    Summing the squared-multiplier geometric series over time turns the
    space-time covariance into sum_{k != 0} |pi_hat(eps k)|^2
    mu_hat(-eps k, eps k) / (1 - m(k)^2); mode 0 drops out since
    pi_hat(0) = 0.
    """
    eps, M = grid.eps, grid.M
    # modes(M)[0] is the only zero mode
    kappa = eps * modes(M)[1:]
    pi_hat = fourier_pi(fam.pi, kappa)
    m = stepping_multiplier(fam, eps, M)[1:]
    denom = 1.0 - m**2
    if np.min(denom) <= 0.0:
        raise ValueError("stepping multiplier reaches 1 at a nonzero mode")
    mu_diag = fourier_mu(fam.mu, -kappa, kappa).real
    return float(np.sum(np.abs(pi_hat) ** 2 * mu_diag / denom))


def _im_g_mu_over_k(fam: OperatorFamily, k: np.ndarray) -> np.ndarray:
    """Im(g(-k) mu_hat(-k, 0)) / k, extended continuously through k = 0."""
    k = np.atleast_1d(np.asarray(k, dtype=np.float64))
    out = np.empty_like(k)
    small = np.abs(k) < TAYLOR_THRESHOLD
    if np.any(~small):
        ks = k[~small]
        out[~small] = np.imag(g_of_k(fam.pi, -ks) * fourier_mu(fam.mu, -ks, np.zeros_like(ks))) / ks
    if np.any(small):
        s2 = fam.pi.moment(2)
        m0 = fam.mu.total_mass()
        q1 = float(np.sum(fam.mu.offsets[:, 0] * fam.mu.weights))
        out[small] = -4.0 * np.pi**2 * q1 - 2.0 * np.pi**2 * s2 * m0
    return out


def _c21_integrand(fam: OperatorFamily, k: np.ndarray) -> np.ndarray:
    nu_hat = fourier_nu(fam.nu, k)
    _denominator_guard(fam, nu_hat)
    g = g_of_k(fam.pi, k)
    f = f_of_k(fam.nu, k)
    nb = fam.nu_bar
    weight = 4.0 * nb**2 * (2.0 * nb + nu_hat) ** 2 / (f**2 * (4.0 * nb + nu_hat) ** 2)
    mu_diag = fourier_mu(fam.mu, -k, k).real
    return -_im_g_mu_over_k(fam, k) * np.abs(g) ** 2 * weight * mu_diag


def c21(fam: OperatorFamily, method: str = "quadrature", grid: GridSpec | None = None) -> float:
    """Drift constant; identically 0 whenever g is real and mu_hat(-k,0) real."""
    if method == "quadrature":
        k, w = _gl_nodes(QUAD_NODES)
        return float(np.sum(w * _c21_integrand(fam, k)))
    if method == "mode_sum":
        if grid is None:
            raise ValueError("mode_sum route needs a grid")
        k = modes(grid.M)
        k = k[k != 0]
        return float(grid.eps * np.sum(_c21_integrand(fam, grid.eps * k)))
    raise ValueError(f"unknown method {method!r}")
