import gc
import math

import numpy as np
import pytest

from conftest import same_bits, traced_peak
from oracles import dxk_fft, dxp_forward, remainder_r1222, remainder_r21
from sbe.grids import GridSpec, LatticeField, NoiseField, sample_noise
from sbe.kernels import order_norm
from sbe.norms import estimate_exponent, make_test_family
from sbe.operators import derivative_multiplier, stepping_multiplier, twisted_product
from sbe import processes
from sbe.processes import NOISE_LABEL, TREE_LABELS, lift, lift_chunk_bytes, lift_chunks
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
        dxp_t1 = dxp_forward(fam_bw_ss, grid, tps["T1"])
        assert remainder_r1222(tps, dxp_t1, fam_bw_ss, (4, 3), (9, 11)) == 0.0


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


@pytest.mark.parametrize("replicas", [0, -1])
def test_mc_summary_refuses_no_replica(fam_bw_ss, setup, replicas):
    grid, consts = setup
    seen = []
    with pytest.raises(ValueError, match="replicas: expected >= 1"):
        processes.mc_summary(fam_bw_ss, consts, grid, 0, replicas, lambda lab, values: seen.append(lab))
    assert seen == []


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


@pytest.mark.parametrize("N, nt", [(5, 1), (5, 2), (5, 3), (5, 64), (6, 129)])
def test_blocked_recurrence_matches_the_sequential_one(fam_bw_ss, N, nt):
    # blocks of isqrt(nt) rows: nt = 1 is one block, 2 and 3 are one-row
    # blocks, 64 is 8 full blocks of 8, and 129 is 12 blocks of 11 with the
    # last one padded
    grid = GridSpec(N, nt * 4.0**-N)
    noise = sample_noise(grid, 60 + nt)
    tps = lift(noise, fam_bw_ss, compute_constants(fam_bw_ss, grid))
    checks = [
        ("T1", tps["T1"], noise.values),
        ("T12", tps["T12"], tps["T2"]),
        ("T124", tps["T124"], twisted_product(fam_bw_ss.mu, tps["T12"], tps["T12"])),
    ]
    for label, got, integrand in checks:
        want = kspace_recurrence(fam_bw_ss, grid, integrand)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), label


REGULARITY_LABELS = ("T1", "T11", "T12", "T2")


def recorded_work(monkeypatch, call):
    """call()'s result and the rows lift's forward and inverse transforms and twisted products took."""
    rows = {"rfft": 0, "irfft": 0, "product": 0}

    def recorded(name, fn):
        def wrapped(*args, **kwargs):
            rows[name] += args[-1].shape[0]  # the transforms' one array, the products' second factor
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.fft, "rfft", recorded("rfft", np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", recorded("irfft", np.fft.irfft))
    monkeypatch.setattr(processes, "twisted_product", recorded("product", twisted_product))
    return call(), rows


def work_of(nt, built):
    """The rows that building ``built`` ({tree: "full" or "last"}) takes.

    T1, T11 and the four convolved trees are inverse-transformed, T2, T21
    and T22 are twisted products, each over every row or at the last row
    alone. A convolution runs over every row: the noise (nt rows) is
    transformed for T1, the forcing of T12, T122, T124 and T1222 (nt + 1
    rows) for theirs, and those of T124 and T1222 are twisted products.
    """
    rows = {"rfft": nt, "irfft": 0, "product": 0}
    for tree, made in built.items():
        n = nt + 1 if made == "full" else 1
        if tree in ("T1", "T11", "T12", "T122", "T124", "T1222"):
            rows["irfft"] += n
        if tree in ("T2", "T21", "T22"):
            rows["product"] += n
        if tree in ("T12", "T122", "T124", "T1222"):
            rows["rfft"] += nt + 1
        if tree in ("T124", "T1222"):
            rows["product"] += nt + 1
    return rows


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
def test_lift_builds_exactly_the_closure(fam_bw_ss, setup, monkeypatch, labels, built):
    # the requested trees are returned; the closure is built, over every row
    grid, consts = setup
    noise = sample_noise(grid, 4)
    tps, work = recorded_work(monkeypatch, lambda: lift(noise, fam_bw_ss, consts, labels=labels))
    assert set(tps) == set(labels)
    assert work == work_of(grid.n_steps, dict.fromkeys(built, "full"))


PROCESSES_LAST = ("T11", "T21", "T124", "T1222")  # the trees that no convolution and no full tree reads
REGULARITY_LAST = ("T1", "T11", "T12")  # what the regularity table reads at the last slice


def n_blocks(grid):
    return -(-grid.n_steps // max(1, math.isqrt(grid.n_steps)))


def chunk_blocks(monkeypatch, grid, blocks):
    """Make lift's chunks ``blocks`` blocks of its recurrence long."""
    block = max(1, math.isqrt(grid.n_steps))
    monkeypatch.setattr(processes, "_CHUNK_BYTES", blocks * block * (grid.M // 2 + 1) * 16)


def chunk_bytes(grid):
    return lift_chunk_bytes(grid) / processes._CHUNKS_HELD


@pytest.mark.parametrize("N, nt", [(5, 1), (5, 2), (5, 37), (5, 100), (7, 4096), (8, 8192)])
def test_last_rows_are_the_full_lifts_last_rows(fam_bw_ss, monkeypatch, N, nt):
    # every tree, full or last, against the one-chunk lift, with one chunk,
    # two and three or more with a shorter last chunk: nt = 1 is one block,
    # 2 is two one-row blocks, 37 is 7 blocks of 6 (the last one partial),
    # 100 is 10 blocks of 10, N = 7, T = 0.25 is the processes experiment's
    # level and N = 8, T = 0.125 the regularity table's (92 blocks, the last
    # one of 2 rows); a streamed noise field gives the explicit one's trees
    grid = GridSpec(N, nt * 4.0**-N)
    consts = compute_constants(fam_bw_ss, grid)
    noise = sample_noise(grid, 70 + grid.n_steps)
    chunk_blocks(monkeypatch, grid, n_blocks(grid))
    whole = lift(noise, fam_bw_ss, consts)
    configs = [(TREE_LABELS, ()), (TREE_LABELS, TREE_LABELS), (REGULARITY_LABELS, REGULARITY_LAST)]
    partial = n_blocks(grid) // 3 + 1
    for blocks in (n_blocks(grid), -(-n_blocks(grid) // 2), partial):
        chunk_blocks(monkeypatch, grid, blocks)
        for field in (noise, NoiseField(grid, noise.seed)) if blocks == partial else (noise,):
            for labels, last in configs:
                if blocks == n_blocks(grid) and field is noise and not last:
                    continue  # the one-chunk lift itself
                part = lift(field, fam_bw_ss, consts, labels=labels, last=last)
                assert set(part) == set(labels)
                for label in labels:
                    want = whole[label][-1:] if label in last else whole[label]
                    assert same_bits(part[label], want), (blocks, last, label)


@pytest.mark.parametrize("blocks, spans", [(7, [(0, 38)]), (4, [(0, 25), (25, 38)]), (3, [(0, 19), (19, 37), (37, 38)])])
def test_chunks_cover_every_row_once_in_order(fam_bw_ss, monkeypatch, blocks, spans):
    # nt = 37 is 7 blocks of 6: one chunk, two (the second of 3 blocks, the
    # last one partial) and three (the third of one row)
    grid = GridSpec(5, 37 * 4.0**-5)
    consts = compute_constants(fam_bw_ss, grid)
    chunk_blocks(monkeypatch, grid, blocks)
    chunks = list(lift_chunks(sample_noise(grid, 3), fam_bw_ss, consts, labels=("T21", "T2"), last=("T21",)))
    assert [(rows.start, rows.stop) for rows, _ in chunks] == spans
    for i, (rows, chunk) in enumerate(chunks):
        final = i == len(chunks) - 1
        assert list(chunk) == ["T2"] + ["T21"] * final
        assert chunk["T2"].shape == (rows.stop - rows.start, grid.M)
    assert chunk["T21"].shape == (1, grid.M)


@pytest.mark.parametrize("N, nt", [(5, 1), (5, 37), (7, 4096)])
def test_lift_chunks_yield_the_noise_rows_they_drew(fam_bw_ss, monkeypatch, N, nt):
    # with NOISE_LABEL each chunk also holds the noise rows it was made of,
    # which concatenate to sample_noise's rows, in one chunk, two and three
    # with a shorter last one, from explicit and streamed fields; the spans
    # and trees are those of the request without the label, which yields
    # no noise
    grid = GridSpec(N, nt * 4.0**-N)
    consts = compute_constants(fam_bw_ss, grid)
    noise = sample_noise(grid, 90 + nt)
    counts = []
    for blocks in (n_blocks(grid), -(-n_blocks(grid) // 2), n_blocks(grid) // 3 + 1):
        chunk_blocks(monkeypatch, grid, blocks)
        for field in (noise, NoiseField(grid, noise.seed)):
            plain = list(lift_chunks(field, fam_bw_ss, consts, labels=REGULARITY_LABELS, last=REGULARITY_LAST))
            labels = (*REGULARITY_LABELS, NOISE_LABEL)
            drawn = list(lift_chunks(field, fam_bw_ss, consts, labels=labels, last=REGULARITY_LAST))
            assert [rows for rows, _ in drawn] == [rows for rows, _ in plain]
            counts.append(len(drawn))
            xi = []
            for (rows, chunk), (_, without) in zip(drawn, plain):
                assert NOISE_LABEL not in without and set(chunk) == {*without, NOISE_LABEL}
                assert all(same_bits(chunk[label], values) for label, values in without.items())
                k = len(chunk[NOISE_LABEL])
                assert same_bits(chunk[NOISE_LABEL], noise.values[rows.stop - 1 - k : rows.stop - 1]), (blocks, rows)
                xi.append(chunk[NOISE_LABEL])
            assert same_bits(np.concatenate(xi), noise.values), blocks
    assert counts == ([1] * 6 if nt == 1 else [1, 1, 2, 2, 3, 3])


def test_only_lift_chunks_yields_the_noise(fam_bw_ss, setup):
    grid, consts = setup
    noise = sample_noise(grid, 4)
    with pytest.raises(ValueError, match="unknown tree label 'xi' in labels"):
        lift(noise, fam_bw_ss, consts, labels=("T2", NOISE_LABEL))
    with pytest.raises(ValueError, match="unknown tree label 'xi' in last"):
        lift_chunks(noise, fam_bw_ss, consts, labels=("T2", NOISE_LABEL), last=(NOISE_LABEL,))


@pytest.mark.parametrize(
    "labels, last, built",
    [
        (REGULARITY_LABELS, REGULARITY_LAST, {"T1": "full", "T2": "full", "T11": "last", "T12": "last"}),
        (
            ("T11", "T1222"),
            ("T11",),
            {"T1": "full", "T2": "full", "T11": "last", "T12": "full", "T22": "full", "T122": "full", "T1222": "full"},
        ),
        # T21 built last reads only the last rows of T11 and T1
        (("T11", "T21"), ("T11", "T21"), {"T1": "last", "T11": "last", "T21": "last"}),
        (("T11", "T21"), ("T21",), {"T1": "last", "T11": "full", "T21": "last"}),
    ],
)
def test_lift_builds_exactly_the_closure_with_last(fam_bw_ss, setup, monkeypatch, labels, last, built):
    # only the requested trees are returned; a tree that no full tree and no
    # convolution reads is built at the last row alone
    grid, consts = setup
    noise = sample_noise(grid, 4)
    full = lift(noise, fam_bw_ss, consts, labels=labels)
    tps, work = recorded_work(monkeypatch, lambda: lift(noise, fam_bw_ss, consts, labels=labels, last=last))
    assert set(tps) == set(labels)
    assert work == work_of(grid.n_steps, built)
    for label in labels:
        assert tps[label].shape == ((1, grid.M) if label in last else (grid.n_steps + 1, grid.M)), label
        assert same_bits(tps[label], full[label][-1:] if label in last else full[label]), label


@pytest.mark.parametrize("N, nt", [(5, 1), (5, 2), (5, 37)])
def test_last_only_convolution_keeps_the_full_ones_ends(fam_bw_ss, monkeypatch, N, nt):
    # a last-only convolution, unshifted (the noise's) and shifted (a
    # tree's), fed the chunks a lift feeds it, in one chunk, two and three
    # (nt = 37: chunks of 7, 4 and 3 blocks of 6, the last block of one
    # row): its blocks' last rows, its final row and the carry it keeps for
    # the next chunk are the full one's, byte for byte, and with blocks of
    # more than one row it skips the other rows' carries
    grid = GridSpec(N, nt * 4.0**-N)
    block = max(1, math.isqrt(nt))
    forcing = np.fft.rfft(sample_noise(grid, 40 + nt).values, axis=1)
    chunkings = set()
    for blocks in (n_blocks(grid), -(-n_blocks(grid) // 2), n_blocks(grid) // 3 + 1):
        chunk_blocks(monkeypatch, grid, blocks)
        step = processes._chunk_rows(grid)
        chunkings.add(-(-nt // step))
        m, pref, powers = processes._multipliers(fam_bw_ss, grid, step)
        assert m.dtype == powers.dtype == np.complex128  # as the rows are: no multiply casts
        convs = {
            last_only: [processes._Convolution(m, pref, powers, shifted, last_only) for shifted in (False, True)]
            for last_only in (False, True)
        }
        skipped = False
        for start in range(0, nt, step):
            rows = np.arange(start + 1 if start else 0, min(start + step, nt) + 1)  # the output's time indices
            ends = (rows % block == 0) & (rows > 0) | (rows == nt)
            f_hat = forcing[start : start + step]
            for conv_full, conv_last in zip(convs[False], convs[True]):
                want, got = conv_full(f_hat), conv_last(f_hat)
                assert same_bits(got[ends], want[ends]), (blocks, start, conv_full.shifted)
                if start + step < nt:
                    assert same_bits(conv_last.carry, conv_full.carry), (blocks, start, conv_full.shifted)
                skipped |= not same_bits(got, want)
                f_hat = want  # the shifted convolution reads the full output of the one before
        assert skipped == (block > 1), blocks
    assert chunkings == ({1} if nt == 1 else {1, 2} if nt == 2 else {1, 2, 3})


ALL_CONVOLVED = ("T1_hat", "DxP_T1_hat", "T12_hat", "T122_hat", "T124_hat", "T1222_hat")


@pytest.mark.parametrize(
    "labels, last, made, last_only",
    [
        (TREE_LABELS, (), ALL_CONVOLVED, ()),
        (REGULARITY_LABELS, (), ALL_CONVOLVED[:3], ()),
        (REGULARITY_LABELS, REGULARITY_LAST, ALL_CONVOLVED[:3], ("DxP_T1_hat", "T12_hat")),
        (TREE_LABELS, TREE_LABELS, ALL_CONVOLVED, ("DxP_T1_hat", "T124_hat", "T1222_hat")),
        (TREE_LABELS, PROCESSES_LAST, ALL_CONVOLVED, ("DxP_T1_hat", "T124_hat", "T1222_hat")),
        (TREE_LABELS, ("T12",), ALL_CONVOLVED, ()),
        (("T11", "T21"), ("T11", "T21"), ALL_CONVOLVED[:2], ("DxP_T1_hat",)),
    ],
    ids=["full", "regularity-full", "regularity", "later-replica", "processes-last", "T12-last", "T21-last"],
)
def test_convolutions_read_at_the_final_row_alone_are_last_only(
    fam_bw_ss, setup, monkeypatch, labels, last, made, last_only
):
    # the lift makes the convolutions it needs, in table order, and one that
    # no tree made in full reads carries its block ends alone: in the
    # regularity lift DxP * T1 (read by T11) and DxP * T2 (by T12), in the
    # later processes replicas DxP * T1, T124 and T1222
    grid, consts = setup
    convs = []

    class Recorded(processes._Convolution):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            convs.append(self)

    monkeypatch.setattr(processes, "_Convolution", Recorded)
    lift(sample_noise(grid, 4), fam_bw_ss, consts, labels=labels, last=last)
    assert len(convs) == len(made)
    assert tuple(label for label, conv in zip(made, convs) if conv.last_only) == last_only


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"labels": ("DxK_T1",)}, "unknown tree label 'DxK_T1' in labels; choose from T1, T2, T11"),
        ({"labels": ("T1_hat",)}, "unknown tree label 'T1_hat'"),
        ({"labels": ("t2",)}, "unknown tree label 't2'"),
        ({"labels": "T2"}, "not the string 'T2'"),
        ({"labels": ("T11",), "last": "T11"}, "last must be a sequence"),
        ({"labels": ("T11",), "last": ("T12",)}, "'T12' is not among the requested labels"),
        ({"labels": ("DxP_T1",)}, "unknown tree label 'DxP_T1'"),
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


@pytest.mark.parametrize(
    "labels, last",
    [
        (("T2",), ("T2",)),
        (("T12", "T22"), ("T12",)),
        (("T12", "T122"), ("T12",)),
        (("T11", "T21"), ("T11",)),
        (("T12", "T124"), ("T12", "T124")),
    ],
)
def test_lift_builds_any_last_it_once_refused(fam_bw_ss, setup, monkeypatch, labels, last):
    # last may name a tree that another tree reads in full: it is made in
    # full and returned at the last slice
    grid, consts = setup
    noise = sample_noise(grid, 4)
    whole = lift(noise, fam_bw_ss, consts, labels=labels)
    chunk_blocks(monkeypatch, grid, 3)
    part = lift(noise, fam_bw_ss, consts, labels=labels, last=last)
    assert set(part) == set(whole)
    for label, tree in whole.items():
        assert same_bits(part[label], tree[-1:] if label in last else tree), label


def test_last_rows_make_no_field_sized_temporary(fam_bw_ss):
    # the regularity lift holds T2 and a few chunks; with T1, T11 and T12 in
    # full it holds three fields more
    grid = GridSpec(7, 0.5)
    consts = compute_constants(fam_bw_ss, grid)
    noise = sample_noise(grid, 8)
    field_bytes = (grid.n_steps + 1) * grid.M * 8

    def peak(**kwargs):
        return traced_peak(lambda: lift(noise, fam_bw_ss, consts, labels=REGULARITY_LABELS, **kwargs))[1]

    assert peak(last=REGULARITY_LAST) <= field_bytes + 12 * chunk_bytes(grid)
    assert peak() >= 4 * field_bytes


def test_lift_holds_only_the_trees_requested(fam_bw_ss):
    # the T2-only lift returns T2 alone and holds at most lift_chunk_bytes
    # beside it, indeed less than the T1 field it reads a chunk at a time
    grid = GridSpec(7, 1.0)
    consts = compute_constants(fam_bw_ss, grid)
    field_bytes = (grid.n_steps + 1) * grid.M * 8
    assert field_bytes < lift_chunk_bytes(grid)
    tps, peak = traced_peak(lambda: lift(NoiseField(grid, 3), fam_bw_ss, consts, labels=("T2",)))
    assert list(tps) == ["T2"]
    assert peak < 2 * field_bytes


def test_later_replica_lift_holds_two_fields_less(fam_bw_ss):
    # the processes experiment's later replicas, with every tree at the last
    # slice: at least two fields below the full lift (nine fields less now)
    grid = GridSpec(7, 0.25)
    consts = compute_constants(fam_bw_ss, grid)
    noise = sample_noise(grid, 8)
    field_bytes = (grid.n_steps + 1) * grid.M * 8
    _, full = traced_peak(lambda: lift(noise, fam_bw_ss, consts))
    _, later = traced_peak(lambda: lift(noise, fam_bw_ss, consts, last=TREE_LABELS))
    assert later <= full - 2 * field_bytes


def test_later_replica_lift_transforms_three_full_fields(fam_bw_ss, setup, monkeypatch):
    # with every tree last (or the four that nothing else reads), in chunks
    # of three blocks: T1, T12 and T122 are inverse-transformed in full, row
    # by row across the chunks, and DxP_T1, T124 and T1222 at the last row only
    grid, consts = setup
    noise = sample_noise(grid, 4)
    chunk_blocks(monkeypatch, grid, 3)
    rows = []
    irfft = np.fft.irfft

    def recorded(a, *args, **kwargs):
        rows.append(a.shape[0])
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", recorded)
    for last in (PROCESSES_LAST, TREE_LABELS):
        rows.clear()
        lift(noise, fam_bw_ss, consts, last=last)
        assert sum(rows) == 3 * (grid.n_steps + 1) + 3 and rows.count(1) == 3 and len(rows) == 3 * 6 + 3, last


def test_later_replica_lift_peaks_within_a_few_chunks(fam_bw_ss, monkeypatch):
    # from a streamed noise field with every tree at the last slice, a later
    # processes replica holds a few chunks and no field: within what
    # lift_chunk_bytes allows, flat when nt is quadrupled (4096 -> 16384
    # rows, chunks of 448 and 384 with 256 KiB chunks at N = 6), and under
    # half a field at the longer horizon
    monkeypatch.setattr(processes, "_CHUNK_BYTES", 1 << 18)
    peaks = []
    for T in (1.0, 4.0):
        grid = GridSpec(6, T)
        consts = compute_constants(fam_bw_ss, grid)
        _, peak = traced_peak(lambda: lift(NoiseField(grid, 8), fam_bw_ss, consts, last=TREE_LABELS))
        assert peak <= lift_chunk_bytes(grid), T
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0]
    assert peaks[1] < (grid.n_steps + 1) * grid.M * 8 / 2


def test_lift_leaves_no_reference_cycles(fam_bw_ss, setup):
    # a cycle would keep every tree of a lift alive until the next collection
    grid, consts = setup
    noise = sample_noise(grid, 4)
    gc.collect()
    gc.disable()
    try:
        lift(noise, fam_bw_ss, consts)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_full_lift_builds_each_tree_once(fam_bw_ss, setup, monkeypatch):
    # each tree's transforms cover each of its rows exactly once, in chunks
    # of three blocks (N = 5, T = 0.25: 16 blocks of 16, so 6 chunks): the
    # noise and the four convolved products forward, T1, DxP_T1, T12,
    # T122, T124 and T1222 inverse
    grid, consts = setup
    noise = sample_noise(grid, 4)
    nt = grid.n_steps
    chunk_blocks(monkeypatch, grid, 3)
    rows = {"rfft": [], "irfft": []}

    def recorded(name):
        transform = getattr(np.fft, name)

        def call(a, *args, **kwargs):
            rows[name].append(a.shape[0])
            return transform(a, *args, **kwargs)

        return call

    for name in rows:
        monkeypatch.setattr(np.fft, name, recorded(name))
    tps = lift(noise, fam_bw_ss, consts)
    assert set(tps) == set(TREE_LABELS)
    assert (len(rows["rfft"]), len(rows["irfft"])) == (5 * 6, 6 * 6)
    assert (sum(rows["rfft"]), sum(rows["irfft"])) == (nt + 4 * (nt + 1), 6 * (nt + 1))


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
    dxp_t1 = dxp_forward(fam_bw_pw, grid, tps["T1"])
    z = (grid.n_steps // 2, 9)
    expected = tps["T1222"][z] - tps["T122"][z] * dxp_t1[z]
    assert remainder_r1222(tps, dxp_t1, fam_bw_pw, z, z) == pytest.approx(expected, rel=1e-12)


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
        dxp_t1 = dxp_forward(fam_bw_ss, grid, tps["T1"])
        z = (grid.n_steps // 2, 0)
        near.append(abs(remainder_r1222(tps, dxp_t1, fam_bw_ss, z, (z[0], 1))))
        far.append(abs(remainder_r1222(tps, dxp_t1, fam_bw_ss, z, (z[0], 16))))
    assert np.median(near) < np.median(far)


def test_kernel_mode_consistency(fam_bw_ss):
    """The full-kernel and split-kernel responses differ by a markedly smoother field.

    The split-kernel T1 is DxK * xi with K the singular part of the heat
    kernel (``oracles.dxk_fft``); the full one is lift's DxP * xi.
    """
    grid = GridSpec(7, 0.125)
    consts = compute_constants(fam_bw_ss, grid)
    tf = make_test_family(grid, lambda_min=4 * grid.eps, lambda_max=0.25)
    gaps = []
    for rep in range(3):
        noise = sample_noise(grid, rep)
        t_full = lift(noise, fam_bw_ss, consts, labels=("T1",))["T1"]
        t_split = dxk_fft(fam_bw_ss, grid, noise.values)
        e_full = estimate_exponent(LatticeField(grid, t_full), tf, mode="space").exponent
        e_diff = estimate_exponent(LatticeField(grid, t_full - t_split), tf, mode="space").exponent
        gaps.append(e_diff - e_full)
    assert np.mean(gaps) >= 0.5


class TestSingularOrderProbe:
    def test_zero_kernel(self):
        grid = GridSpec(5, 0.25)
        assert order_norm(np.zeros((8, grid.M)), grid, -1.0, m=2) == 0.0

    def test_scaled_delta(self):
        grid = GridSpec(5, 0.25)
        k = np.zeros((4, grid.M))
        k[0, 0] = 1.0 / grid.eps
        # the undifferentiated ratio at the origin is exactly one
        assert order_norm(k, grid, -1.0, m=0) == pytest.approx(1.0, rel=1e-12)
        full = order_norm(k, grid, -1.0, m=2)
        assert np.isfinite(full) and full >= 1.0

    def test_split_kernel_stability(self, fam_bw_ss):
        from sbe.heat import HeatKernel

        vals = []
        for N in (5, 6, 7):
            grid = GridSpec(N, 0.25)
            K = HeatKernel(grid, fam_bw_ss).singular_part(0.25)
            vals.append(order_norm(K, grid, -1.0, m=2))
        assert max(vals) / min(vals) < 2.0

