"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 is expected to fail at the stated desk-scale parameters: the
coupled trajectories leave the scheme's stability ball almost surely well
before the stated horizon (the solver flags and truncates, as specified),
and on every defensible comparison window the nonlinear coupled gap
contracts slower than the demanded ratio. The test still asserts the
stated numbers and prints the measured evidence, including the linear
baseline that shows the machinery itself converges cleanly.
"""

import statistics
import time

import numpy as np

from sbe.cli import coupled_convergence_study
from sbe.grids import GridSpec, LatticeField, NoiseField, sample_noise
from sbe.heat import HeatKernel
from sbe.kernels import order_norm, renormalized_square_check
from sbe.measures import AtomicMeasure2D, preset_measure
from sbe.norms import estimate_exponent, make_test_family
from sbe.operators import OperatorFamily, check_parseval_twisted
from sbe.processes import lift
from sbe.renorm import c2_lattice_sum, c2_quadrature, c21, compute_constants
from sbe.solver import SchemeConfig, ic_zero, run

from oracles import mild_oracle


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_twisted_parseval(rng):
    t0 = time.monotonic()
    mus = {
        "pointwise": preset_measure("product-pointwise"),
        "sasamoto-spohn": preset_measure("product-sasamoto-spohn"),
        "symmetric-pair": AtomicMeasure2D({(1, -1): 0.5, (-1, 1): 0.5}),
    }
    eps = 1.0 / 64
    worst = 0.0
    for mu in mus.values():
        fam = OperatorFamily(preset_measure("laplacian-nn"), preset_measure("deriv-backward"), mu)
        for _ in range(20):
            f, g = rng.standard_normal((2, 64))
            worst = max(worst, check_parseval_twisted(fam, f, g, eps))
    elapsed = time.monotonic() - t0
    report(
        "criterion 1 (twisted Parseval)",
        worst <= 1e-10 and elapsed < 1.0,
        f"worst residual {worst:.2e} over 20 pairs x 3 products, {elapsed:.2f}s",
    )


def test_criterion_2_scheme_mild_equivalence(all_preset_families):
    # The equivalence is an algebraic identity in the driving field; the
    # noise is scaled into the pre-blow-up regime so 100 full steps exist
    # for every family (at full variance every family escapes much sooner,
    # which is flagged data, not a usable equivalence window).
    t0 = time.monotonic()
    T = 100 * 2.0**-10
    grid = GridSpec(5, T)
    base = sample_noise(grid, 0)
    noise = NoiseField(grid, 0, 0.1 * base.values)
    worst = 0.0
    for name, fam in all_preset_families.items():
        cfg = SchemeConfig(fam, grid, b_drift=-0.7)
        a = run(cfg, ic_zero(grid), noise, T)
        b = mild_oracle(cfg, ic_zero(grid), noise, T)
        assert not a.blowup and len(a.snapshots) == 101
        gap = max(np.max(np.abs(x[1] - y[1])) for x, y in zip(a.snapshots, b.snapshots))
        worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    report(
        "criterion 2 (scheme/mild equivalence)",
        worst <= 1e-8 and elapsed < 10.0,
        f"max gap {worst:.2e} over 100 steps, 4 families, {elapsed:.1f}s",
    )


def test_criterion_3_exact_conservation(fam_bw_ss):
    from sbe.operators import derivative, twisted_product

    grid = GridSpec(6, 1000 * 2.0**-12)
    base = sample_noise(grid, 31)
    noise = NoiseField(grid, 31, 0.2 * base.values)
    cfg = SchemeConfig(fam_bw_ss, grid, b_drift=0.0, record_stride=1)
    traj = run(cfg, 0.8 * np.sin(2 * np.pi * grid.sites), noise, grid.T)
    assert not traj.blowup and len(traj.snapshots) == 1001
    vals = traj.values()
    means = grid.eps * vals.sum(axis=1)
    drift = float(np.max(np.abs(means - means[0])))
    worst_energy = 0.0
    for u in vals:
        dnl = derivative(fam_bw_ss, twisted_product(fam_bw_ss.mu, u, u), grid.eps)
        resid = abs(grid.eps * np.sum(u * dnl))
        denom = grid.eps * np.sum(np.abs(u * dnl)) + 1e-300
        worst_energy = max(worst_energy, resid / denom)
    report(
        "criterion 3 (exact conservation)",
        drift <= 1e-10 and worst_energy <= 1e-9,
        f"mean drift {drift:.2e} over 1000 steps; energy identity {worst_energy:.2e} relative",
    )


def test_criterion_4_heat_kernel_certificates(fam_bw_ss):
    grid = GridSpec(6, 0.25)
    hk = HeatKernel(grid, fam_bw_ss)
    cols = hk.columns(grid.n_steps)
    mass_err = float(np.max(np.abs(grid.eps * cols.sum(axis=1) - 1.0)))
    semi = 0.0
    for a, b in ((7, 40), (128, 512), (300, 300)):
        conv = grid.eps * np.fft.ifft(np.fft.fft(cols[a]) * np.fft.fft(cols[b])).real
        semi = max(semi, float(np.max(np.abs(conv - cols[a + b]))))
    delta = np.zeros(grid.M)
    delta[0] = 1.0 / grid.eps
    one = hk.step(delta) * grid.eps
    one_ok = one[0] == 0.75 and one[1] == 0.125 and one[-1] == 0.125 and not one[2:-1].any()
    mult_ok = hk.multiplier.min() >= 0.5 and hk.multiplier.max() <= 1.0
    report(
        "criterion 4 (heat-kernel certificates)",
        mass_err <= 1e-12 and semi <= 1e-10 and one_ok and mult_ok,
        f"mass err {mass_err:.1e}, semigroup {semi:.1e}, one-step exact {one_ok}, multiplier in [1/2,1] {mult_ok}",
    )


def test_criterion_5_renormalization_constants(fam_bw_ss, fam_bw_pw, fam_ce_pw, all_preset_families):
    t0 = time.monotonic()
    gaps = []
    for N in (6, 7, 8):
        grid = GridSpec(N, 0.25)
        q = c2_quadrature(fam_bw_ss, grid)
        l = c2_lattice_sum(fam_bw_ss, grid)
        gaps.append(abs(q - l) / l)
    a_ok = gaps[2] <= 0.05 and gaps[2] < gaps[1] < gaps[0]
    b_ok = True
    for fam in all_preset_families.values():
        for N in (5, 6, 7, 8):
            r = c2_lattice_sum(fam, GridSpec(N + 1, 0.25)) / c2_lattice_sum(fam, GridSpec(N, 0.25))
            b_ok &= 1.8 <= r <= 2.2
    c_q = c21(fam_ce_pw, "quadrature")
    c_m = c21(fam_ce_pw, "mode_sum", GridSpec(8, 0.25))
    c_ok = abs(c_q) <= 1e-10 and abs(c_m) <= 1e-10
    d_q = c21(fam_bw_pw, "quadrature")
    d_m = c21(fam_bw_pw, "mode_sum", GridSpec(8, 0.25))
    d_ok = abs(d_q - d_m) / abs(d_q) <= 0.01
    elapsed = time.monotonic() - t0
    report(
        "criterion 5 (renormalization constants)",
        a_ok and b_ok and c_ok and d_ok and elapsed < 30.0,
        f"gaps {['%.3f%%' % (100 * g) for g in gaps]}, scaling ok {b_ok}, "
        f"antisymmetry kill {c_q:.1e}/{c_m:.1e}, route agreement {abs(d_q - d_m) / abs(d_q):.3%}, {elapsed:.1f}s",
    )


def test_criterion_6_chaos_mean(fam_bw_ss):
    t0 = time.monotonic()
    grid = GridSpec(6, 0.25)
    consts = compute_constants(fam_bw_ss, grid)
    vals = []
    for rep in range(200):
        tps = lift(sample_noise(grid, 20_000 + rep), fam_bw_ss, consts, labels=("T2",))
        vals.append(tps["T2"][-1, 0])
    vals = np.asarray(vals)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(len(vals)))
    elapsed = time.monotonic() - t0
    report(
        "criterion 6 (chaos mean)",
        abs(mean) <= 3 * se and elapsed < 300.0,
        f"mean {mean:.3f} vs 3*SE {3 * se:.3f} over 200 replicas at t=0.25, N=6, {elapsed:.0f}s",
    )


def test_criterion_7_regularity_table(fam_bw_ss):
    t0 = time.monotonic()
    grid = GridSpec(8, 0.125)
    consts = compute_constants(fam_bw_ss, grid)
    tf = make_test_family(grid, lambda_min=4 * grid.eps, lambda_max=0.125)
    targets = {"T1": "space", "T11": "space", "T12": "space", "T2": "parabolic"}
    table = {lab: [] for lab in list(targets) + ["noise"]}
    for rep in range(20):
        noise = sample_noise(grid, 40_000 + rep)
        tps = lift(noise, fam_bw_ss, consts, labels=tuple(targets))
        for lab, mode in targets.items():
            table[lab].append(estimate_exponent(LatticeField(grid, tps[lab]), tf, mode=mode).exponent)
        table["noise"].append(estimate_exponent(LatticeField(grid, noise.values), tf, mode="parabolic").exponent)
    means = {lab: float(np.mean(v)) for lab, v in table.items()}
    checks = {
        "T1": abs(means["T1"] + 0.5) <= 0.15,
        "T11": abs(means["T11"] - 0.5) <= 0.15,
        "T2": abs(means["T2"] + 1.0) <= 0.15,
        "T12": abs(means["T12"]) <= 0.2,
        "noise": abs(means["noise"] + 1.5) <= 0.15,
    }
    elapsed = time.monotonic() - t0
    report(
        "criterion 7 (regularity table)",
        all(checks.values()) and elapsed < 600.0,
        ", ".join(f"{lab}={means[lab]:+.3f}({'ok' if ok else 'OFF'})" for lab, ok in checks.items())
        + f", {elapsed:.0f}s",
    )


def test_criterion_8_dyadic_self_convergence(fam_bw_ss):
    """Expected red: see the module docstring and README for the analysis."""
    t0 = time.monotonic()
    from sbe.solver import drift_coefficient

    b = drift_coefficient(fam_bw_ss, "renormalized")
    per_pair, _ = coupled_convergence_study(
        fam_bw_ss, [5, 6, 7], T=0.125, replicas=50, seed=100, alpha=-0.6, eta=-0.6, b_drift=b
    )
    m56 = statistics.median(per_pair["5->6"])
    m67 = statistics.median(per_pair["6->7"])
    ratio = m67 / m56

    # diagnostic baseline: the identical protocol on the linear equation
    lin = OperatorFamily(fam_bw_ss.nu, fam_bw_ss.pi, AtomicMeasure2D({(0, 0): 0.0}))
    lin_pairs, _ = coupled_convergence_study(lin, [5, 6, 7], T=0.125, replicas=20, seed=100)
    lin_ratio = statistics.median(lin_pairs["6->7"]) / statistics.median(lin_pairs["5->6"])
    elapsed = time.monotonic() - t0
    report(
        "criterion 8 (dyadic self-convergence)",
        m67 < m56 and ratio <= 0.85 and elapsed < 900.0,
        f"medians {m56:.3f} -> {m67:.3f} over 50 coupled replicas "
        f"(decreasing: {m67 < m56}), ratio {ratio:.3f} vs required <= 0.85; "
        f"linear baseline ratio {lin_ratio:.3f} converges cleanly, so the shortfall "
        f"is the nonlinear coupled gap at these desk-scale levels, {elapsed:.0f}s",
    )


def test_criterion_9_singular_kernel_order(fam_bw_ss, fam_bw_pw):
    vals = []
    for N in (5, 6, 7, 8):
        grid = GridSpec(N, 0.25)
        K = HeatKernel(grid, fam_bw_ss).singular_part(0.25)
        vals.append(order_norm(K, grid, -1.0, 2))
    stable = max(vals) / min(vals) <= 2.0

    _, _, resid = renormalized_square_check(fam_bw_pw, GridSpec(6, 0.25))
    report(
        "criterion 9 (singular-kernel order)",
        stable and resid <= 1e-12,
        f"order norms {['%.3f' % v for v in vals]} (max/min {max(vals) / min(vals):.2f}), "
        f"renormalized-convolution identity residual {resid:.1e}",
    )
