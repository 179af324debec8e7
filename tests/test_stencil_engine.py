"""The one blocked shift-and-sum engine against the np.roll reference in oracles.py.

The engine keeps the summation order, so every comparison is exact. Fields
are cut into blocks of rows, so the shapes include fields of several blocks
with a partial last one, an empty batch and 1-d and 3-d fields.
"""

import numpy as np
import pytest

from oracles import forward_diffs_roll, stencil_apply_roll, twisted_product_roll
from sbe.grids import GridSpec
from sbe.kernels import _forward_diffs
from sbe.measures import AtomicMeasure1D, AtomicMeasure2D
from sbe.operators import OperatorFamily, _block_rows, _reach, _terms, derivative, laplacian, twisted_product


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
