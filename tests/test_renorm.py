import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from sbe.grids import GridSpec, sample_noise
from sbe.processes import lift
from sbe.renorm import _c2_integrand, c2_lattice_sum, c2_quadrature, c21, compute_constants


def test_c2_integrand_closed_form_value(fam_ce_pw):
    # central difference, pointwise product, nearest-neighbour Laplacian at
    # k = 1/4: |g|^2 = 16, 4 nu_bar^2 = 64, f = 32, 4 nu_bar + nu_hat = 14
    val = _c2_integrand(fam_ce_pw, np.array([0.25]))[0]
    assert val == pytest.approx(16 * 64 / (32 * 14), rel=1e-12)


def test_c2_positive_for_presets(all_preset_families):
    grid = GridSpec(6, 0.25)
    for fam in all_preset_families.values():
        assert c2_quadrature(fam, grid) > 0.0
        assert c2_lattice_sum(fam, grid) > 0.0


def test_c2_routes_converge(fam_bw_ss):
    gaps = []
    for N in (6, 7, 8):
        grid = GridSpec(N, 0.25)
        q = c2_quadrature(fam_bw_ss, grid)
        l = c2_lattice_sum(fam_bw_ss, grid)
        gaps.append(abs(q - l) / l)
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 0.05


def test_c2_scaling_in_eps(all_preset_families):
    for fam in all_preset_families.values():
        for N in (5, 6, 7, 8):
            ratio = c2_lattice_sum(fam, GridSpec(N + 1, 0.25)) / c2_lattice_sum(fam, GridSpec(N, 0.25))
            assert 1.8 <= ratio <= 2.2


def test_c2_lattice_monte_carlo_oracle(fam_bw_ss):
    """Independent Monte Carlo estimate of the stationary squared response."""
    grid = GridSpec(4, 0.25)
    consts = compute_constants(fam_bw_ss, grid)
    vals = []
    for rep in range(300):
        tps = lift(sample_noise(grid, 5000 + rep), fam_bw_ss, consts, labels=("T2",))
        vals.append(tps["T2"][-1, 0])
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    # T2 = B(T1, T1) - c2 has late-time mean equal to the residual geometric
    # tail, far below Monte Carlo resolution here
    assert abs(vals.mean()) < 3 * se


class TestC21:
    def test_antisymmetric_derivative_kills_constant(self, fam_ce_pw):
        grid = GridSpec(8, 0.25)
        assert abs(c21(fam_ce_pw, "quadrature")) < 1e-10
        assert abs(c21(fam_ce_pw, "mode_sum", grid)) < 1e-10

    def test_backward_difference_routes_agree(self, fam_bw_pw):
        grid = GridSpec(8, 0.25)
        q = c21(fam_bw_pw, "quadrature")
        m = c21(fam_bw_pw, "mode_sum", grid)
        assert q != 0.0
        assert abs(q - m) / abs(q) < 0.01

    def test_mode_sum_eps_stable(self, fam_bw_pw):
        v6 = c21(fam_bw_pw, "mode_sum", GridSpec(6, 0.25))
        v9 = c21(fam_bw_pw, "mode_sum", GridSpec(9, 0.25))
        assert abs(v6 - v9) / abs(v9) < 0.02

    def test_quadrature_is_grid_free(self, fam_bw_pw):
        assert c21(fam_bw_pw, "quadrature") == c21(fam_bw_pw, "quadrature")

    def test_mode_sum_needs_grid(self, fam_bw_pw):
        with pytest.raises(ValueError):
            c21(fam_bw_pw, "mode_sum")

    def test_solver_drift_uses_quadrature_route(self, fam_bw_pw):
        from sbe.solver import drift_coefficient

        q = c21(fam_bw_pw, "quadrature")
        assert q != 0.0
        assert drift_coefficient(fam_bw_pw, "renormalized") == -4.0 * q
        assert drift_coefficient(fam_bw_pw, "renormalized") != -4.0 * c21(fam_bw_pw, "mode_sum", GridSpec(8, 0.25))


def test_integrands_finite_at_origin(all_preset_families):
    from sbe.renorm import _c21_integrand

    ks = np.array([0.0, 1e-9, 1e-5, 1e-3])
    for fam in all_preset_families.values():
        assert np.all(np.isfinite(_c2_integrand(fam, ks)))
        assert np.all(np.isfinite(_c21_integrand(fam, ks)))


def test_constants_record_provenance(fam_bw_ss):
    grid = GridSpec(6, 0.25)
    consts = compute_constants(fam_bw_ss, grid)
    assert consts.grid_N == 6
    assert consts.family_fingerprint == fam_bw_ss.fingerprint()


# Gauss-Legendre nodes on [-1, 1] of the bump integrals of the mollified constant
BUMP_NODES = 96
# time horizon of the mollified continuum constant
CONTINUUM_HORIZON = 0.25


def bump(r: np.ndarray) -> np.ndarray:
    """Smooth bump exp(-1/(1-r^2)) on |r| < 1, zero outside (unnormalized)."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


def _bump_rule():
    """Gauss-Legendre nodes on [-1, 1], their weights times the unit-mass bump, and its mass."""
    x, w = leggauss(BUMP_NODES)
    mass = float(np.sum(w * bump(x)))
    return x, w * (bump(x) / mass), mass


def _bump_profile_ft(xi: np.ndarray) -> np.ndarray:
    """Fourier transform of the normalized 1-d bump on [-1, 1]."""
    x, wb, _ = _bump_rule()
    return np.sum(wb * np.exp(-2j * np.pi * np.multiply.outer(xi, x)), axis=-1)


def _bump_exp_moment_shifted(a: np.ndarray) -> np.ndarray:
    """beta~(a) = int e^{a (w - 1)} bump(w) dw, normalized; stays in [0, 1]."""
    x, wb, _ = _bump_rule()
    return np.sum(wb * np.exp(np.multiply.outer(a, x - 1.0)), axis=-1)


def c2_continuum_mollified(eps_bar: float, quad_grid: int = 8) -> float:
    """int (d_x (K * rho_eps_bar))^2 over space-time, K the continuum kernel.

    The continuum counterpart of c2, whose eps_bar^-1 scaling the lattice
    constant shares. Evaluated in parabolic units of eps_bar via
    space-Fourier quadrature: the space integral becomes
    int |2 pi xi|^2 |rho_x_hat|^2 |...|^2 d xi and the heat semigroup enters
    as e^{-4 pi^2 xi^2 s}. The window tau in (0, 1] around the mollifier
    support is integrated on a grid controlled by ``quad_grid``; the tau > 1
    tail is closed-form. Scales exactly like eps_bar^-1 up to the
    CONTINUUM_HORIZON offset.
    """
    if not 0.0 < eps_bar <= 0.25:
        raise ValueError("eps_bar must lie in (0, 1/4]")
    q = int(quad_grid)
    if q < 2:
        raise ValueError("quad_grid too small")
    tau_max = CONTINUUM_HORIZON / eps_bar**2

    xi = np.linspace(0.0, 8.0, 64 * q + 1)[1:]
    dxi = xi[1] - xi[0]
    rho_x2 = np.abs(_bump_profile_ft(xi)) ** 2
    a = 4.0 * np.pi**2 * xi**2

    # tau in (-1, 1]: the s-integral int_0^inf e^{-a s} bt(tau - s) ds against
    # the normalized time bump, by Gauss-Legendre on the overlap of supports.
    bt_mass = _bump_rule()[2]
    gx, gw = leggauss(4 * q)
    taus = np.linspace(-1.0, 1.0, 4 * q + 1)
    taus = 0.5 * (taus[:-1] + taus[1:])
    dtau = 2.0 / (4 * q)
    head = np.zeros_like(xi)
    for tau in taus:
        lo, hi = max(0.0, tau - 1.0), tau + 1.0
        if hi <= lo:
            continue
        half = 0.5 * (hi - lo)
        s = 0.5 * (hi + lo) + half * gx
        bt = bump(tau - s) / bt_mass
        inner = half * np.sum(gw * bt * np.exp(-np.multiply.outer(a, s)), axis=-1)
        head += (2.0 * np.pi * xi) ** 2 * inner**2 * dtau

    # tau in (1, tau_max]: the inner integral factorizes as e^{-a tau} beta(a)
    # with beta(a) = e^a beta~(a); combined so nothing overflows.
    beta_shifted = _bump_exp_moment_shifted(a)
    tail = (2.0 * np.pi * xi) ** 2 * beta_shifted**2 * (1.0 - np.exp(-2.0 * a * (tau_max - 1.0))) / (2.0 * a)

    total_scaled = np.sum((head + tail) * rho_x2) * dxi * 2.0  # xi-parity
    return float(total_scaled / eps_bar)


class TestContinuumMollified:
    def test_halving_doubles(self):
        v = {e: c2_continuum_mollified(e) for e in (1 / 16, 1 / 32, 1 / 64)}
        assert 1.7 <= v[1 / 32] / v[1 / 16] <= 2.3
        assert 1.7 <= v[1 / 64] / v[1 / 32] <= 2.3

    def test_positive(self):
        assert c2_continuum_mollified(1 / 16) > 0.0

    def test_quadrature_self_convergence(self):
        coarse = c2_continuum_mollified(1 / 32, quad_grid=8)
        fine = c2_continuum_mollified(1 / 32, quad_grid=16)
        assert abs(fine - coarse) / coarse < 0.01

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            c2_continuum_mollified(0.3)
