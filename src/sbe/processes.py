"""The nine discrete controlling processes.

Each tree field is built from one noise realization by alternating causal
space-time kernel convolutions with twisted products, subtracting the
renormalization constants a (for the squared response) and b (for the
drift-generating tree) where the recursion prescribes them:

    T1    = DxP * xi                 T11  = B(1, DxP * T1)
    T2    = B(T1, T1) - a            T21  = B(T11, T1) - b
    T12   = DxP * T2                 T22  = B(T12, T1) - 2 b T1
    T122  = DxP * T22                T124 = DxP * B(T12, T12)
    T1222 = DxP * (B(T122, T1) - b T12)

P is the full heat kernel, against which the constants are defined. B(1, h)
is the stencil of h with mu's weights summed over j1 (for Sasamoto-Spohn,
(h + h(. + eps)) / 2). Space convolutions are spectral on real half-spectra
(rfft modes 0..M/2, the fields being real); the time convolution is the
causal Riemann sum eps^2 sum_{s < t} P_{t - s - eps^2} F_s, the offset that
makes the mild form reproduce the forward scheme exactly.

That sum is the k-space recurrence out[n] = m out[n-1] + eps^2 Dx F[n-1]
with the stepping multiplier m, the one time convolution of the lift. It
runs in blocks of about sqrt(nt) time rows: every block runs the recurrence
from zero at once, then each block in turn adds m^(i+1) times the finished
last row of the block before it to its row i. That takes about 2 sqrt(nt)
array steps instead of nt, and it is stable: admissibility pins m into
[1/2, 1], so every power is at most 1 and nothing is divided.

A statistic that reads only the final time slice of a tree asks ``lift``
for it with ``last``: the space estimates of the regularity table read T11
and T12 there, and the Monte Carlo means of the ``processes`` experiment
read T11, T21, T124 and T1222 there for every replica after the first. The
last row of DxP * F comes from the same recurrence kept on one row per
block: each block runs its in-block steps on one running row, reading F
through strided row views, and the blocks' last rows are carried forward
with the same powers of m. These are the additions and products of the full
recurrence in the same order, so the row, its inverse transform and the T11
stencil on it are the same bits as the last row of the full tree. T21's
last row is the twisted product of the last rows of T11 and T1, which acts
row by row. T124 and T1222 still convolve their full forcing, so T12, T122
and T1 stay full under them.

``lift`` states the recursion once, as a table of label: (the trees the
rule reads, the rule), every tree after the trees it reads; the last-slice
rules sit in a second table of the same shape and replace their entries.
The labels, ``last`` and the closure are checked against the table before
any transform runs.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import NoiseField
from .operators import OperatorFamily, _stencil, derivative_multiplier, stepping_multiplier, twisted_product
from .renorm import RenormConstants

__all__ = ["TREE_LABELS", "lift"]

TREE_LABELS = ("T1", "T2", "T11", "T21", "T12", "T22", "T122", "T124", "T1222")


def _label_tuple(labels, name: str) -> tuple:
    """``labels`` as a tuple of tree labels; anything else is a ValueError."""
    if isinstance(labels, str):
        raise ValueError(f"{name} must be a sequence of tree labels, not the string {labels!r}; pass ({labels!r},)")
    labels = tuple(labels)
    for label in labels:
        if label not in TREE_LABELS:
            raise ValueError(f"unknown tree label {label!r} in {name}; choose from {', '.join(TREE_LABELS)}")
    return labels


def lift(noise: NoiseField, fam: OperatorFamily, consts: RenormConstants, labels=TREE_LABELS, last=()) -> dict:
    """Build the controlling processes for one noise realization: {label: field}.

    Each field has shape (n_steps + 1, M), time index n <-> t = n eps^2.
    Each tree is one entry of the table below, listed after the trees its
    rule reads: one reverse pass over the table finds the requested
    ``labels`` plus exactly the trees their rules read, and one forward pass
    builds those, each once. ``last`` names requested trees built at the
    final time slice only, shape (1, M), with the same bits as the full
    tree's last row (see the module docstring). It may name T11, T12, T21,
    T124 and T1222, each unless another tree of the lift reads it in full
    (a full T21 reads T11; T22, T124 and T1222 read T12); T21 built last
    reads only the last rows of T11 and T1. Labels outside TREE_LABELS, a
    bare string, any other ``last`` and a streamed noise field are refused
    before anything is computed. Deterministic in (noise, family, constants).
    """
    if consts.family_fingerprint != fam.fingerprint():
        raise ValueError("constants were computed for a different family")
    if consts.grid_N != noise.grid.N:
        raise ValueError(f"constants at N={consts.grid_N} but noise at N={noise.grid.N}")
    labels, last = _label_tuple(labels, "labels"), _label_tuple(last, "last")
    xi = noise.values  # a streamed field holds none: ValueError
    grid = noise.grid
    eps, nt = grid.eps, grid.n_steps
    a, b = consts.c2, consts.c21
    half = grid.M // 2 + 1  # rfft modes 0..M/2
    m = stepping_multiplier(fam, eps, grid.M)[:half]
    pref = eps**2 * derivative_multiplier(fam, eps, grid.M)[:half]
    # conv_p's recurrence runs in n_blocks blocks of `block` rows, ~sqrt(nt) each
    block = max(1, math.isqrt(nt))
    n_blocks = -(-nt // block)
    carry_powers = m ** np.arange(1, block + 1)[:, None]  # m^(i+1) for row i of a block

    def conv_p(f_hat: np.ndarray, last: bool = False) -> np.ndarray:
        """Causal DxP convolution by the blocked recurrence of the module docstring.

        The last block is padded with zero forcing. With ``last`` only the
        final row is kept: row i of every block is one strided view of
        f_hat, and the last block, which may be partial, stops at its
        final row, so nothing field-sized is made.
        """
        if last:
            ends = pref * f_hat[0:nt:block]  # each block's running row
            for i in range(1, block):
                row = pref * f_hat[i:nt:block]
                row += m * ends[: len(row)]
                ends[: len(row)] = row
            # a block keeps its last row, the last block its row (nt - 1) % block
            for j in range(1, n_blocks):
                ends[j] += carry_powers[-1 if j < n_blocks - 1 else (nt - 1) % block] * ends[j - 1]
            return ends[-1:]
        out = np.zeros((n_blocks * block + 1, half), dtype=np.complex128)
        np.multiply(pref, f_hat[:nt], out=out[1 : nt + 1])
        blocks = out[1:].reshape(n_blocks, block, half)
        for i in range(1, block):
            blocks[:, i] += m * blocks[:, i - 1]
        for j in range(1, n_blocks):
            blocks[j] += carry_powers * blocks[j - 1, -1]
        return out[: nt + 1]

    def field(f_hat: np.ndarray) -> np.ndarray:
        return np.fft.irfft(f_hat, n=grid.M, axis=1)

    def hat(f: np.ndarray) -> np.ndarray:
        return np.fft.rfft(f, axis=1)

    def B(f, g):
        return twisted_product(fam.mu, f, g)

    # B(1, h) = sum_j2 (sum_j1 mu(j1, j2)) h(. + eps j2)
    marginal = {}
    for (_, j2), w in fam.mu.atoms:
        marginal[j2] = marginal.get(j2, 0.0) + w
    one_atoms = sorted(marginal.items())

    # label: (the trees its rule reads, the rule), each tree after the trees it
    # reads; T1_hat is T1's half-spectrum and DxP_T1 the convolution T11 is a
    # stencil of
    table = {
        "T1_hat": ((), lambda: conv_p(hat(xi))),
        "T1": (("T1_hat",), field),
        "DxP_T1": (("T1_hat",), lambda t1_hat: field(conv_p(t1_hat))),
        "T11": (("DxP_T1",), lambda dxp_t1: _stencil(one_atoms, dxp_t1)),
        "T2": (("T1",), lambda t1: B(t1, t1) - a),
        "T21": (("T11", "T1"), lambda t11, t1: B(t11, t1) - b),
        "T12": (("T2",), lambda t2: field(conv_p(hat(t2)))),
        "T22": (("T12", "T1"), lambda t12, t1: B(t12, t1) - 2.0 * b * t1),
        "T122": (("T22",), lambda t22: field(conv_p(hat(t22)))),
        "T124": (("T12",), lambda t12: field(conv_p(hat(B(t12, t12))))),
        "T1222": (("T122", "T1", "T12"), lambda t122, t1, t12: field(conv_p(hat(B(t122, t1) - b * t12)))),
    }
    # the trees that can be built at the last time slice only, in the same shape
    last_table = {
        "T11": (("T1_hat",), lambda t1_hat: _stencil(one_atoms, field(conv_p(t1_hat, last=True)))),
        "T12": (("T2",), lambda t2: field(conv_p(hat(t2), last=True))),
        "T21": (("T11", "T1"), lambda t11, t1: B(t11[-1:], t1[-1:]) - b),
        "T124": (("T12",), lambda t12: field(conv_p(hat(B(t12, t12)), last=True))),
        "T1222": (("T122", "T1", "T12"), lambda t122, t1, t12: field(conv_p(hat(B(t122, t1) - b * t12), last=True))),
    }
    reads_last_rows = ("T21",)  # last rules that read only the last rows of their trees
    for label in last:
        if label not in labels:
            raise ValueError(f"last label {label!r} is not among the requested labels")
        if label not in last_table:
            raise ValueError(f"{label} cannot be built at the last slice only; last may name {', '.join(last_table)}")
        table[label] = last_table[label]
    needed = set(labels)  # grows to the closure: a tree read by a needed tree comes before it
    for label, (reads, _) in reversed(table.items()):
        if label in needed:
            needed.update(reads)
    for label in last:
        readers = sorted(r for r in needed if label in table[r][0] and not (r in last and r in reads_last_rows))
        if readers:
            raise ValueError(f"{label} cannot be built at the last slice only: {', '.join(readers)} reads it in full")

    trees = {}
    for label, (reads, rule) in table.items():
        if label in needed:
            trees[label] = rule(*(trees[r] for r in reads))
    return {label: trees[label] for label in TREE_LABELS if label in trees}
