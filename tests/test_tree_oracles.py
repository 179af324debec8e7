"""Every tree of ``lift`` against a route that uses none of its transforms.

full_P: the whole chain rebuilt by stepping the forward scheme of the
linear family (``oracles.trees_forward``). split_K: each DxK tree from
lift's own integrand by the direct space-time sum at seeded points
(``oracles.dxk_direct``), each DxP tree by the forward scheme. Gaps are
bounded relative to the field's sup.
"""

import numpy as np
import pytest

from oracles import dxk_direct, dxp_forward, trees_forward, twisted_product_roll
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
    assert_close_to_sup("dxp_t1", tps.dxp_t1, ref["dxp_t1"], sup(tps.dxp_t1))


def test_full_p_central_pointwise_family(fam_ce_pw):
    grid = GridSpec(5, T)
    consts = compute_constants(fam_ce_pw, grid)
    noise = sample_noise(grid, 81)
    tps = lift(noise, fam_ce_pw, consts)
    ref = trees_forward(noise, fam_ce_pw, consts.c2, consts.c21)
    for label in TREE_LABELS:
        assert_close_to_sup(label, tps[label], ref[label], sup(tps[label]))


def test_split_k_trees_match_direct_sums(fam_bw_ss, level):
    grid, consts, noise = level
    nt, M = grid.n_steps, grid.M
    tps = lift(noise, fam_bw_ss, consts, mode="split_K")
    gen = np.random.default_rng(90 + grid.N)
    points = [(1, 0), (nt, 0), (nt, M - 1)]
    points += zip(gen.integers(1, nt + 1, N_POINTS).tolist(), gen.integers(0, M, N_POINTS).tolist())
    rows, cols = np.array(points).T

    def at_points(field):
        return field[rows, cols]

    for label, integrand in (("T1", noise.values), ("T12", tps["T2"]), ("T122", tps["T22"])):
        assert not tps[label][0].any(), label
        direct = dxk_direct(fam_bw_ss, grid, integrand, points)
        assert_close_to_sup(label, at_points(tps[label]), direct, sup(tps[label]))
    # T11 = B(1, DxK * T1): the inner convolution at each site the product reads
    t11 = sum(
        w * dxk_direct(fam_bw_ss, grid, tps["T1"], [(n, (x + j2) % M) for n, x in points])
        for (_, j2), w in fam_bw_ss.mu.atoms
    )
    assert_close_to_sup("T11", at_points(tps["T11"]), t11, sup(tps["T11"]))

    def B(f, g):
        return twisted_product_roll(fam_bw_ss.mu, f, g)

    b = consts.c21
    forward = {
        "T124": B(tps["T12"], tps["T12"]),
        "T1222": B(tps["T122"], tps["T1"]) - b * tps["T12"],
        "dxp_t1": tps["T1"],
    }
    for label, integrand in forward.items():
        field = tps.dxp_t1 if label == "dxp_t1" else tps[label]
        assert_close_to_sup(label, field, dxp_forward(fam_bw_ss, grid, integrand), sup(field))
    products = {
        "T2": B(tps["T1"], tps["T1"]) - consts.c2,
        "T21": B(tps["T11"], tps["T1"]) - b,
        "T22": B(tps["T12"], tps["T1"]) - 2.0 * b * tps["T1"],
    }
    for label, ref in products.items():
        assert_close_to_sup(label, tps[label], ref, sup(tps[label]))
