"""Every tree of ``lift`` against a route that uses none of its transforms.

The whole chain is rebuilt by stepping the forward scheme of the linear
family (``oracles.trees_forward``). The split-kernel response that the suite
compares with lift's (``oracles.dxk_fft``) is checked against the direct
space-time sum at seeded points (``oracles.dxk_direct``). Gaps are bounded
relative to the field's sup.
"""

import numpy as np
import pytest

from oracles import dxk_direct, dxk_fft, trees_forward, twisted_product_roll
from sbe.grids import GridSpec, sample_noise
from sbe.processes import TREE_LABELS, lift
from sbe.renorm import compute_constants

T = 0.25
REL = 1e-13
N_POINTS = 24


def assert_close_to_sup(label, got, want, sup):
    gap = float(np.max(np.abs(got - want)))
    assert gap <= REL * sup, f"{label}: gap {gap:.3g} against sup {sup:.3g}"


def sup(field):
    return float(np.max(np.abs(field)))


@pytest.fixture(scope="module", params=[5, 6])
def level(request, fam_bw_ss):
    grid = GridSpec(request.param, T)
    return grid, compute_constants(fam_bw_ss, grid), sample_noise(grid, 70 + request.param)


def test_full_p_trees_match_the_forward_scheme(fam_bw_ss, level):
    grid, consts, noise = level
    tps = lift(noise, fam_bw_ss, consts)
    ref = trees_forward(noise, fam_bw_ss, consts.c2, consts.c21)
    for label in TREE_LABELS:
        assert_close_to_sup(label, tps[label], ref[label], sup(tps[label]))


def test_full_p_central_pointwise_family(fam_ce_pw):
    grid = GridSpec(5, T)
    consts = compute_constants(fam_ce_pw, grid)
    noise = sample_noise(grid, 81)
    tps = lift(noise, fam_ce_pw, consts)
    ref = trees_forward(noise, fam_ce_pw, consts.c2, consts.c21)
    for label in TREE_LABELS:
        assert_close_to_sup(label, tps[label], ref[label], sup(tps[label]))


def test_split_k_trees_match_direct_sums(fam_bw_ss, level):
    # the split-kernel T1 = DxK * xi, and T12 = DxK * T2 with T2 made from it
    grid, consts, noise = level
    nt, M = grid.n_steps, grid.M
    gen = np.random.default_rng(90 + grid.N)
    points = [(1, 0), (nt, 0), (nt, M - 1)]
    points += zip(gen.integers(1, nt + 1, N_POINTS).tolist(), gen.integers(0, M, N_POINTS).tolist())
    rows, cols = np.array(points).T
    t1 = dxk_fft(fam_bw_ss, grid, noise.values)
    t2 = twisted_product_roll(fam_bw_ss.mu, t1, t1) - consts.c2
    for label, integrand in (("T1", noise.values), ("T12", t2)):
        tree = dxk_fft(fam_bw_ss, grid, integrand)
        assert not tree[0].any(), label
        direct = dxk_direct(fam_bw_ss, grid, integrand, points)
        assert_close_to_sup(label, tree[rows, cols], direct, sup(tree))
