import gc

import numpy as np
import pytest

from conftest import traced_peak
from sbe.grids import GridSpec, LatticeField, NoiseField, sample_noise
from sbe.kernels import DiscreteKernel, order_norm
from sbe.norms import estimate_exponent, make_test_family
from sbe.operators import derivative_multiplier, stepping_multiplier, twisted_product
from sbe.processes import TREE_LABELS, lift, remainder_r1222, remainder_r21
from sbe.renorm import RenormConstants, compute_constants


@pytest.fixture(scope="module")
def setup(fam_bw_ss):
    grid = GridSpec(5, 0.25)
    consts = compute_constants(fam_bw_ss, grid)
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
    wrong_grid = RenormConstants(consts.c2, consts.c21, 7, consts.family_fingerprint)
    with pytest.raises(ValueError, match="N="):
        lift(noise, fam_bw_ss, wrong_grid)
    with pytest.raises(ValueError, match="kernel mode"):
        lift(noise, fam_bw_ss, consts, mode="banana")
    with pytest.raises(ValueError, match=r"streamed noise field \(seed 1, N=5\)"):
        lift(NoiseField(grid, 1), fam_bw_ss, consts)


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


def kspace_recurrence(fam, grid, f):
    """DxP * f by the k-space recurrence on full spectra, one time row per step."""
    m = stepping_multiplier(fam, grid.eps, grid.M)
    pref = grid.eps**2 * derivative_multiplier(fam, grid.eps, grid.M)
    f_hat = np.fft.fft(f, axis=1)
    out = np.zeros((grid.n_steps + 1, grid.M), dtype=np.complex128)
    for n in range(1, grid.n_steps + 1):
        out[n] = m * out[n - 1] + pref * f_hat[n - 1]
    return np.fft.ifft(out, axis=1).real


def test_t11_pointwise_product_collapses(fam_bw_pw, setup):
    # with the single-atom product, B(1, h) = h so T11 is the inner
    # convolution DxP * T1
    grid, _ = setup
    consts = compute_constants(fam_bw_pw, grid)
    noise = sample_noise(grid, 5)
    tps = lift(noise, fam_bw_pw, consts, labels=("T11", "T1"))
    np.testing.assert_allclose(tps["T11"], kspace_recurrence(fam_bw_pw, grid, tps["T1"]), atol=1e-10)


@pytest.mark.parametrize("mode", ["full_P", "split_K"])
@pytest.mark.parametrize("N, nt", [(5, 1), (5, 2), (5, 3), (5, 64), (6, 129)])
def test_blocked_recurrence_matches_the_sequential_one(fam_bw_ss, mode, N, nt):
    # blocks of isqrt(nt) rows: nt = 1 is one block, 2 and 3 are one-row
    # blocks, 64 is 8 full blocks of 8, and 129 is 12 blocks of 11 with the
    # last one padded
    grid = GridSpec(N, nt * 4.0**-N)
    noise = sample_noise(grid, 60 + nt)
    tps = lift(noise, fam_bw_ss, compute_constants(fam_bw_ss, grid), mode=mode)
    checks = [
        ("dxp_t1", tps.dxp_t1, tps["T1"]),
        ("T124", tps["T124"], twisted_product(fam_bw_ss.mu, tps["T12"], tps["T12"])),
    ]
    if mode == "full_P":
        checks.append(("T1", tps["T1"], noise.values))
    for label, got, integrand in checks:
        want = kspace_recurrence(fam_bw_ss, grid, integrand)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), label


REGULARITY_LABELS = ("T1", "T11", "T12", "T2")


@pytest.mark.parametrize(
    "labels, built",
    [
        (("T1",), {"T1"}),
        (("T2",), {"T1", "T2"}),
        (("T21",), {"T1", "T11", "T21"}),
        (("T124",), {"T1", "T2", "T12", "T124"}),
        (("T1222",), {"T1", "T2", "T12", "T22", "T122", "T1222"}),
        (REGULARITY_LABELS, set(REGULARITY_LABELS)),
        (TREE_LABELS, set(TREE_LABELS)),
    ],
)
def test_lift_builds_exactly_the_closure(fam_bw_ss, setup, labels, built):
    grid, consts = setup
    tps = lift(sample_noise(grid, 4), fam_bw_ss, consts, labels=labels)
    assert set(tps.fields) == built
    assert (tps.dxp_t1 is not None) == ("T1222" in built)


PROCESSES_LAST = ("T11", "T21", "T124", "T1222")  # what the processes experiment builds last for later replicas


@pytest.mark.parametrize("mode", ["full_P", "split_K"])
@pytest.mark.parametrize("N, nt", [(5, 1), (5, 2), (5, 37), (5, 100), (7, 4096), (8, 8192)])
def test_last_rows_are_the_full_lifts_last_rows(fam_bw_ss, mode, N, nt):
    # nt = 1 and 2 are one-row blocks, 37 is 7 blocks of 6 with the last one
    # partial, 100 is 10 full blocks of 10, N = 7, T = 0.25 is the processes
    # experiment's level and N = 8, T = 0.125 the regularity table's; T21 is
    # a twisted product of two last rows, T124 and T1222 the last row of
    # conv_p on their full forcing
    grid = GridSpec(N, nt * 4.0**-N)
    consts = compute_constants(fam_bw_ss, grid)
    noise = sample_noise(grid, 70 + grid.n_steps)
    full = lift(noise, fam_bw_ss, consts, mode=mode)
    for labels, last in [(REGULARITY_LABELS, ("T11", "T12")), (TREE_LABELS, PROCESSES_LAST)]:
        part = lift(noise, fam_bw_ss, consts, mode=mode, labels=labels, last=last)
        assert set(part.fields) == set(labels)
        for label in labels:
            if label in last:
                assert part[label].shape == (1, grid.M), label
                assert np.array_equal(part[label], full[label][-1:]), label
            else:
                assert np.array_equal(part[label], full[label]), label


def test_last_t1222_builds_no_dxp_t1(fam_bw_ss, setup):
    grid, consts = setup
    tps = lift(sample_noise(grid, 4), fam_bw_ss, consts, last=PROCESSES_LAST)
    assert tps.dxp_t1 is None
    with pytest.raises(ValueError, match="did not build T1222"):
        remainder_r1222(tps, fam_bw_ss, (0, 0), (0, 1))


@pytest.mark.parametrize(
    "labels, last, built",
    [
        (REGULARITY_LABELS, ("T11", "T12"), set(REGULARITY_LABELS)),
        (("T11", "T1222"), ("T11",), {"T1", "T2", "T11", "T12", "T22", "T122", "T1222"}),
        # T21 built last reads only the last rows of T11 and T1
        (("T11", "T21"), ("T11", "T21"), {"T1", "T11", "T21"}),
        (("T11", "T21"), ("T21",), {"T1", "T11", "T21"}),
    ],
)
def test_lift_builds_exactly_the_closure_with_last(fam_bw_ss, setup, labels, last, built):
    grid, consts = setup
    noise = sample_noise(grid, 4)
    full = lift(noise, fam_bw_ss, consts, labels=labels)
    tps = lift(noise, fam_bw_ss, consts, labels=labels, last=last)
    assert set(tps.fields) == built
    for label in built:
        assert tps[label].shape == ((1, grid.M) if label in last else (grid.n_steps + 1, grid.M)), label
    assert (tps.dxp_t1 is None) == (full.dxp_t1 is None)
    if full.dxp_t1 is not None:
        assert np.array_equal(tps.dxp_t1, full.dxp_t1)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"labels": ("DxK_T1",)}, "unknown tree label 'DxK_T1' in labels; choose from T1, T2, T11"),
        ({"labels": ("T1_hat",)}, "unknown tree label 'T1_hat'"),
        ({"labels": ("t2",)}, "unknown tree label 't2'"),
        ({"labels": "T2"}, "not the string 'T2'"),
        ({"labels": ("T11",), "last": "T11"}, "last must be a sequence"),
        ({"labels": ("T11",), "last": ("T12",)}, "'T12' is not among the requested labels"),
        ({"labels": ("T2",), "last": ("T2",)}, "T2 cannot be built at the last slice only; last may name T11, T12"),
        ({"labels": ("T12", "T22"), "last": ("T12",)}, "T12 .* T22 reads it in full"),
        ({"labels": ("T12", "T122"), "last": ("T12",)}, "T12 .* T22 reads it in full"),
        ({"labels": ("T11", "T21"), "last": ("T11",)}, "T11 .* T21 reads it in full"),
        ({"labels": ("T12", "T124"), "last": ("T12", "T124")}, "T12 .* T124 reads it in full"),
    ],
)
def test_lift_refuses_what_it_cannot_return(fam_bw_ss, setup, monkeypatch, kwargs, match):
    grid, consts = setup
    noise = sample_noise(grid, 4)

    def no_transform(*args, **kwargs):
        raise AssertionError("transform ran before the labels were checked")

    for name in ("fft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, no_transform)
    with pytest.raises(ValueError, match=match):
        lift(noise, fam_bw_ss, consts, **kwargs)


@pytest.mark.parametrize("labels, last", [(("T2",), ("T2",)), (("T12", "T22"), ("T12",))])
def test_split_k_refuses_before_transforming_its_kernel(fam_bw_ss, setup, monkeypatch, labels, last):
    # these refusals read the rule table, which lift builds before any transform
    grid, consts = setup
    noise = sample_noise(grid, 4)

    def no_transform(*args, **kwargs):
        raise AssertionError("the cutoff kernel was transformed before the refusal")

    monkeypatch.setattr(np.fft, "rfft", no_transform)
    with pytest.raises(ValueError, match="cannot be built at the last slice only"):
        lift(noise, fam_bw_ss, consts, mode="split_K", labels=labels, last=last)


def test_last_rows_make_no_field_sized_temporary(fam_bw_ss):
    # the regularity lift with last builds T1_hat, T1, T2 and hat(T2): one
    # field more than the ("T2",) lift, against three more without last
    grid = GridSpec(7, 0.25)
    consts = compute_constants(fam_bw_ss, grid)
    noise = sample_noise(grid, 8)
    field_bytes = (grid.n_steps + 1) * grid.M * 8

    def peak(**kwargs):
        return traced_peak(lambda: lift(noise, fam_bw_ss, consts, **kwargs))[1]

    t2_only = peak(labels=("T2",))
    assert peak(labels=REGULARITY_LABELS, last=("T11", "T12")) <= t2_only + field_bytes
    assert peak(labels=REGULARITY_LABELS) > t2_only + 2 * field_bytes


def test_later_replica_lift_holds_two_fields_less(fam_bw_ss):
    # the processes experiment's later replicas: with T11, T21, T124 and
    # T1222 at the last slice, and no DxP * T1, the lift peaks at least two
    # fields below the full lift
    grid = GridSpec(7, 0.25)
    consts = compute_constants(fam_bw_ss, grid)
    noise = sample_noise(grid, 8)
    field_bytes = (grid.n_steps + 1) * grid.M * 8
    _, full = traced_peak(lambda: lift(noise, fam_bw_ss, consts))
    _, later = traced_peak(lambda: lift(noise, fam_bw_ss, consts, last=PROCESSES_LAST))
    assert later <= full - 2 * field_bytes


def test_later_replica_lift_transforms_three_full_fields(fam_bw_ss, setup, monkeypatch):
    # full_P with T11, T21, T124 and T1222 last: T1, T12 and T122 are
    # inverse-transformed in full, T11, T124 and T1222 as one row each
    grid, consts = setup
    noise = sample_noise(grid, 4)
    rows = []
    irfft = np.fft.irfft

    def recorded(a, *args, **kwargs):
        rows.append(a.shape[0])
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", recorded)
    lift(noise, fam_bw_ss, consts, last=PROCESSES_LAST)
    assert sorted(rows) == [1, 1, 1] + 3 * [grid.n_steps + 1]


@pytest.mark.parametrize("mode", ["full_P", "split_K"])
def test_lift_leaves_no_reference_cycles(fam_bw_ss, setup, mode):
    # a cycle would keep every tree of a lift alive until the next collection
    grid, consts = setup
    noise = sample_noise(grid, 4)
    gc.collect()
    gc.disable()
    try:
        lift(noise, fam_bw_ss, consts, mode=mode)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_full_lift_builds_each_tree_once(fam_bw_ss, setup, monkeypatch):
    # full_P: one inverse transform for each of T1, DxK_T1, T12, T122, T124
    # and T1222 (DxP * T1 is DxK_T1), one forward transform for each of the
    # noise and the four products that are convolved
    grid, consts = setup
    noise = sample_noise(grid, 4)
    calls = {"rfft": 0, "irfft": 0}

    def counted(name):
        transform = getattr(np.fft, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(np.fft, name, counted(name))
    tps = lift(noise, fam_bw_ss, consts)
    assert set(tps.fields) == set(TREE_LABELS) and tps.dxp_t1 is not None
    assert calls == {"rfft": 5, "irfft": 6}


def test_remainder_r21_pointwise_identity(fam_bw_pw, setup):
    grid, _ = setup
    consts = compute_constants(fam_bw_pw, grid)
    tps = lift(sample_noise(grid, 6), fam_bw_pw, consts, labels=("T21", "T11", "T1"))
    t, x = grid.n_steps, 7
    expected = tps["T21"][t, x] - tps["T11"][t, x] * tps["T1"][t, x]
    assert remainder_r21(tps, fam_bw_pw, t, x, x) == pytest.approx(expected, rel=1e-12)


def test_remainder_r1222_pointwise_identity(fam_bw_pw, setup):
    grid, _ = setup
    consts = compute_constants(fam_bw_pw, grid)
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
    consts = compute_constants(fam_bw_ss, grid)
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
    consts = compute_constants(fam_bw_ss, grid)
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
    consts = compute_constants(fam_bw_ss, grid)
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

