import numpy as np
import pytest

from sbe.grids import GridSpec, LatticeField, NoiseField, sample_noise
from sbe.kernels import DiscreteKernel, order_norm
from sbe.norms import estimate_exponent, make_test_family
from sbe.processes import TREE_LABELS, lift, remainder_r1222, remainder_r21
from sbe.renorm import RenormConstants, compute_constants


@pytest.fixture(scope="module")
def setup(fam_bw_ss):
    grid = GridSpec(5, 0.25)
    consts = compute_constants(fam_bw_ss, grid, "lattice_sum")
    return grid, consts


def zero_noise(grid):
    return NoiseField(grid, 0, np.zeros((grid.n_steps, grid.M)))


class TestZeroNoise:
    def test_constants_survive(self, fam_bw_ss, setup):
        grid, consts = setup
        tps = lift(zero_noise(grid), fam_bw_ss, consts)
        assert not tps["T1"].any()
        np.testing.assert_array_equal(tps["T2"], -consts.c2)
        np.testing.assert_array_equal(tps["T21"], -consts.c21)
        for label in ("T12", "T22", "T122", "T124", "T1222"):
            assert not tps[label].any(), label

    def test_remainders(self, fam_bw_ss, setup):
        grid, consts = setup
        tps = lift(zero_noise(grid), fam_bw_ss, consts)
        assert remainder_r21(tps, fam_bw_ss, 4, 3, 11) == pytest.approx(-consts.c21, abs=1e-14)
        assert remainder_r1222(tps, fam_bw_ss, (4, 3), (9, 11)) == 0.0


def test_lift_deterministic(fam_bw_ss, setup):
    grid, consts = setup
    noise = sample_noise(grid, 42)
    a = lift(noise, fam_bw_ss, consts)
    b = lift(noise, fam_bw_ss, consts)
    for label in TREE_LABELS:
        assert np.array_equal(a[label], b[label])


def test_lift_guards(fam_bw_ss, fam_ce_pw, setup):
    grid, consts = setup
    noise = sample_noise(grid, 1)
    with pytest.raises(ValueError, match="different family"):
        lift(noise, fam_ce_pw, consts)
    wrong_grid = RenormConstants(consts.c2, consts.c21, consts.method, 7, consts.family_fingerprint)
    with pytest.raises(ValueError, match="N="):
        lift(noise, fam_bw_ss, wrong_grid)
    with pytest.raises(ValueError, match="kernel mode"):
        lift(noise, fam_bw_ss, consts, mode="banana")


def test_t1_linear_in_noise(fam_bw_ss, setup):
    grid, consts = setup
    n1 = sample_noise(grid, 1)
    n2 = sample_noise(grid, 2)
    summed = NoiseField(grid, 3, n1.values + n2.values)
    t_sum = lift(summed, fam_bw_ss, consts, labels=("T1",))["T1"]
    t_parts = (
        lift(n1, fam_bw_ss, consts, labels=("T1",))["T1"] + lift(n2, fam_bw_ss, consts, labels=("T1",))["T1"]
    )
    np.testing.assert_allclose(t_sum, t_parts, atol=1e-9)


def test_t11_pointwise_product_collapses(fam_bw_pw, setup):
    # with the single-atom product, B(1, h) = h so T11 is the inner
    # convolution of T1 itself
    grid, _ = setup
    consts = compute_constants(fam_bw_pw, grid, "lattice_sum")
    noise = sample_noise(grid, 5)
    tps = lift(noise, fam_bw_pw, consts, labels=("T11", "T1"))
    from sbe.processes import _Lifter

    lf = _Lifter(noise, fam_bw_pw, "full_P")
    inner = lf.to_field(lf.conv(np.fft.fft(tps["T1"], axis=1)))
    np.testing.assert_allclose(tps["T11"], inner, atol=1e-10)


def test_remainder_r21_pointwise_identity(fam_bw_pw, setup):
    grid, _ = setup
    consts = compute_constants(fam_bw_pw, grid, "lattice_sum")
    tps = lift(sample_noise(grid, 6), fam_bw_pw, consts, labels=("T21", "T11", "T1"))
    t, x = grid.n_steps, 7
    expected = tps["T21"][t, x] - tps["T11"][t, x] * tps["T1"][t, x]
    assert remainder_r21(tps, fam_bw_pw, t, x, x) == pytest.approx(expected, rel=1e-12)


def test_remainder_r1222_pointwise_identity(fam_bw_pw, setup):
    grid, _ = setup
    consts = compute_constants(fam_bw_pw, grid, "lattice_sum")
    tps = lift(sample_noise(grid, 6), fam_bw_pw, consts)
    z = (grid.n_steps // 2, 9)
    expected = tps["T1222"][z] - tps["T122"][z] * tps.dxp_t1[z]
    assert remainder_r1222(tps, fam_bw_pw, z, z) == pytest.approx(expected, rel=1e-12)


def test_chaos_parity(fam_bw_ss, setup):
    """Odd-chaos trees have mean zero."""
    grid, consts = setup
    t1, t122 = [], []
    for rep in range(200):
        tps = lift(sample_noise(grid, 3000 + rep), fam_bw_ss, consts, labels=("T1", "T122"))
        t1.append(tps["T1"][-1, 0])
        t122.append(tps["T122"][-1, 0])
    for vals in (np.asarray(t1), np.asarray(t122)):
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean()) < 3 * se


def test_remainder_r21_sublinear_growth(fam_bw_ss):
    """Median |R|/|y-x|^0.3 stays bounded across dyadic separations."""
    grid = GridSpec(6, 0.25)
    consts = compute_constants(fam_bw_ss, grid, "lattice_sum")
    seps = (1, 2, 4, 8, 16)
    ratios = {s: [] for s in seps}
    for rep in range(40):
        tps = lift(sample_noise(grid, 800 + rep), fam_bw_ss, consts, labels=("T21", "T11", "T1"))
        for s in seps:
            r = remainder_r21(tps, fam_bw_ss, grid.n_steps, 0, s)
            ratios[s].append(abs(r) / (s * grid.eps) ** 0.3)
    medians = [np.median(ratios[s]) for s in seps]
    assert max(medians) / min(medians) < 4.0


def test_remainder_r1222_scaling(fam_bw_ss):
    """|R1222(z; zbar)| shrinks roughly linearly in the separation."""
    grid = GridSpec(6, 0.25)
    consts = compute_constants(fam_bw_ss, grid, "lattice_sum")
    near, far = [], []
    for rep in range(40):
        tps = lift(sample_noise(grid, 900 + rep), fam_bw_ss, consts)
        z = (grid.n_steps // 2, 0)
        near.append(abs(remainder_r1222(tps, fam_bw_ss, z, (z[0], 1))))
        far.append(abs(remainder_r1222(tps, fam_bw_ss, z, (z[0], 16))))
    assert np.median(near) < np.median(far)


def test_kernel_mode_consistency(fam_bw_ss):
    """full_P and split_K responses differ by a markedly smoother field."""
    grid = GridSpec(7, 0.125)
    consts = compute_constants(fam_bw_ss, grid, "lattice_sum")
    tf = make_test_family(grid, lambda_min=4 * grid.eps, lambda_max=0.25)
    gaps = []
    for rep in range(3):
        noise = sample_noise(grid, rep)
        t_full = lift(noise, fam_bw_ss, consts, labels=("T1",))["T1"]
        t_split = lift(noise, fam_bw_ss, consts, mode="split_K", labels=("T1",))["T1"]
        e_full = estimate_exponent(LatticeField(grid, t_full), tf, mode="space").exponent
        e_diff = estimate_exponent(LatticeField(grid, t_full - t_split), tf, mode="space").exponent
        gaps.append(e_diff - e_full)
    assert np.mean(gaps) >= 0.5


class TestSingularOrderProbe:
    def test_zero_kernel(self):
        grid = GridSpec(5, 0.25)
        assert order_norm(DiscreteKernel(np.zeros((8, grid.M)), grid, -1.0), -1.0, m=2) == 0.0

    def test_scaled_delta(self):
        grid = GridSpec(5, 0.25)
        k = np.zeros((4, grid.M))
        k[0, 0] = 1.0 / grid.eps
        # the undifferentiated ratio at the origin is exactly one
        assert order_norm(DiscreteKernel(k, grid, -1.0), -1.0, m=0) == pytest.approx(1.0, rel=1e-12)
        full = order_norm(DiscreteKernel(k, grid, -1.0), -1.0, m=2)
        assert np.isfinite(full) and full >= 1.0

    def test_split_kernel_stability(self, fam_bw_ss):
        from sbe.heat import HeatKernel

        vals = []
        for N in (5, 6, 7):
            grid = GridSpec(N, 0.25)
            sp = HeatKernel(grid, fam_bw_ss).split(0.25)
            vals.append(order_norm(DiscreteKernel(sp.K, grid, -1.0), -1.0, m=2))
        assert max(vals) / min(vals) < 2.0

