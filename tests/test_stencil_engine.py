"""The one shift-and-sum engine against the np.roll reference in oracles.py.

The engine keeps the summation order, so every comparison is exact.
"""

import numpy as np
import pytest

from oracles import forward_diffs_roll, stencil_apply_roll, twisted_product_roll
from sbe.grids import GridSpec, _shift
from sbe.kernels import _forward_diffs
from sbe.measures import AtomicMeasure1D, AtomicMeasure2D
from sbe.operators import OperatorFamily, derivative, laplacian, twisted_product


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


def test_shift_is_a_roll(rng):
    for shape in ((1,), (5,), (3, 8), (2, 3, 6)):
        u = rng.standard_normal(shape)
        assert _shift(u, 0) is u
        M = shape[-1]
        for j in range(-2 * M, 2 * M + 1):
            assert np.array_equal(_shift(u, j), np.roll(u, -j, axis=-1)), (shape, j)


def test_operators_match_roll_reference(families, rng):
    for name, fam in families.items():
        r = max(fam.nu.radius, fam.pi.radius, fam.mu.radius)
        # the smallest tori the wrap guard allows, an odd one, and (R, M) batches
        for shape in ((2 * r + 1,), (2 * r + 2,), (3, 2 * r + 2), (33,), (5, 64)):
            f, g = rng.standard_normal((2,) + shape)
            eps = 1.0 / shape[-1]
            lap = stencil_apply_roll(fam.nu, 1.0 / (2.0 * fam.nu_bar * eps**2), f)
            assert np.array_equal(laplacian(fam, f, eps), lap), (name, shape)
            assert np.array_equal(derivative(fam, f, eps), stencil_apply_roll(fam.pi, 1.0 / eps, f)), (name, shape)
            assert np.array_equal(twisted_product(fam.mu, f, g), twisted_product_roll(fam.mu, f, g)), (name, shape)


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
