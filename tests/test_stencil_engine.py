"""The one blocked shift-and-sum engine against the np.roll reference in oracles.py.

The engine keeps the summation order, so every comparison is exact. Fields
are cut into blocks of rows, so the shapes include fields of several blocks
with a partial last one, an empty batch and 1-d and 3-d fields. Fields of
signed zeros and subnormals check the sign of every zero sum by its bits.
"""

import numpy as np
import pytest

from conftest import same_bits
from oracles import forward_diffs_roll, linear_family, stencil_apply_roll, step_roll, twisted_product_roll
from sbe.grids import GridSpec
from sbe.kernels import _forward_diffs
from sbe.measures import AtomicMeasure1D, AtomicMeasure2D
from sbe.operators import (
    OperatorFamily,
    _block_rows,
    _reach,
    _stencil,
    _terms,
    derivative,
    laplacian,
    twisted_product,
)
from sbe.solver import SchemeConfig, step_forward


def radius2_family() -> OperatorFamily:
    """Fourth-order Laplacian and central derivative, and a product with negative offsets."""
    return OperatorFamily(
        nu=AtomicMeasure1D({-2: -1 / 12, -1: 4 / 3, 0: -5 / 2, 1: 4 / 3, 2: -1 / 12}),
        pi=AtomicMeasure1D({-2: 1 / 12, -1: -2 / 3, 1: 2 / 3, 2: -1 / 12}),
        mu=AtomicMeasure2D({(-2, 1): 0.25, (1, -2): 0.25, (-1, -1): 0.2, (0, 0): 0.3}),
    )


@pytest.fixture()
def families(all_preset_families):
    return dict(all_preset_families, radius2=radius2_family())


def engine_shapes(M: int, block: int) -> list:
    """Field shapes for a torus of M sites, where the engine takes ``block`` rows at a time.

    1-d, (R, M) and 3-d fields, an empty batch, and fields spanning several
    blocks with a partial last block (2-d and 3-d).
    """
    return [(M,), (3, M), (0, M), (2, 3, M), (2 * block + 3, M), (2, block + 2, M)]


def test_operators_match_roll_reference(families, rng):
    for name, fam in families.items():
        r = max(fam.nu.radius, fam.pi.radius, fam.mu.radius)
        # the smallest tori the wrap guard allows, an odd one, and a wider one
        for M in (2 * r + 1, 2 * r + 2, 33, 64):
            eps = 1.0 / M
            lap_coeff = 1.0 / (2.0 * fam.nu_bar * eps**2)
            cases = (  # measure, bilinear, engine, reference
                (
                    fam.nu,
                    False,
                    lambda f, g: laplacian(fam, f, eps),
                    lambda f, g: stencil_apply_roll(fam.nu, lap_coeff, f),
                ),
                (
                    fam.pi,
                    False,
                    lambda f, g: derivative(fam, f, eps),
                    lambda f, g: stencil_apply_roll(fam.pi, 1.0 / eps, f),
                ),
                (
                    fam.mu,
                    True,
                    lambda f, g: twisted_product(fam.mu, f, g),
                    lambda f, g: twisted_product_roll(fam.mu, f, g),
                ),
            )
            for measure, bilinear, engine, reference in cases:
                block = _block_rows(M, _reach(_terms(measure.atoms, bilinear)))
                for shape in engine_shapes(M, block):
                    f, g = rng.standard_normal((2,) + shape)
                    for second in (g, f):  # distinct f and g, then f is g
                        assert np.array_equal(engine(f, second), reference(f, second)), (name, measure, shape)


def test_forward_diffs_match_roll_reference(rng):
    for N in (2, 5):
        grid = GridSpec(N, 0.25)
        values = rng.standard_normal((7, grid.M))
        ref = forward_diffs_roll(values, grid, 2)
        out = _forward_diffs(values, grid, 2)
        assert out.keys() == ref.keys()
        for key, arr in ref.items():
            assert np.array_equal(out[key], arr), (N, key)


def test_wrap_guard_reads_the_radius():
    fam = radius2_family()
    for M in (3, 4):  # radius 2 >= M / 2
        u = np.zeros(M)
        with pytest.raises(ValueError, match="wraps"):
            laplacian(fam, u, 1.0 / M)
        with pytest.raises(ValueError, match="wraps"):
            derivative(fam, u, 1.0 / M)
        with pytest.raises(ValueError, match="wraps"):
            twisted_product(fam.mu, u, u)


def signed_zero_fields(M: int, rng) -> np.ndarray:
    """Rows whose engine sums meet signed zeros: rows of +0.0 and of -0.0,
    zeros of random signs, subnormals of random signs (their products
    underflow to signed zeros), zeros with a few subnormals, and constant
    rows, whose stencil sums cancel to zero."""
    signs = rng.choice([-1.0, 1.0], size=(4, M))
    tiny = np.array(5e-324)
    return np.stack(
        [
            np.zeros(M),
            np.full(M, -0.0),
            0.0 * signs[0],
            0.0 * signs[1],
            tiny * signs[2] * rng.integers(1, 4, M),
            np.where(rng.random(M) < 0.25, tiny * signs[3], 0.0 * signs[0]),
            np.full(M, 0.75),
            np.full(M, -3.0),
        ]
    )


@pytest.mark.parametrize("N", [3, 5])
def test_signed_zeros_keep_the_bits_of_a_zero_start(families, fam_bw_ss, N):
    """Sums that start from their first term, then add +0.0, give the bits
    of the roll spelling's zero start, signed zeros included, also for the
    linear family, whose product has no terms, and steps with and without
    a drift."""
    rng = np.random.default_rng(N)
    grid = GridSpec(N, 0.25)
    M, eps = grid.M, grid.eps
    for name, fam in dict(families, linear=linear_family(fam_bw_ss)).items():
        u = signed_zero_fields(M, rng)
        g = u[rng.permutation(len(u))]
        lap_coeff = 1.0 / (2.0 * fam.nu_bar * eps**2)
        pairs = [
            (laplacian(fam, u, eps), stencil_apply_roll(fam.nu, lap_coeff, u)),
            (derivative(fam, u, eps), stencil_apply_roll(fam.pi, 1.0 / eps, u)),
            (_stencil(fam.nu.atoms, u), stencil_apply_roll(fam.nu, 1.0, u)),
            (_stencil(fam.pi.atoms, g), stencil_apply_roll(fam.pi, 1.0, g)),
            (twisted_product(fam.mu, u, g), twisted_product_roll(fam.mu, u, g)),
            (twisted_product(fam.mu, u, u), twisted_product_roll(fam.mu, u, u)),
        ]
        for b in (0.0, 2e-13, -1.5):
            cfg = SchemeConfig(fam, grid, b_drift=b)
            pairs.append((step_forward(cfg, u, g), step_roll(cfg, u, g)))
        for k, (got, want) in enumerate(pairs):
            assert same_bits(got, want), (name, k)
