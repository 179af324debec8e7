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
from zero, then each block in turn adds m^(i+1) times the finished last row
of the block before it to its row i. Admissibility pins m into [1/2, 1], so
every power is at most 1 and nothing is divided. m and its powers are made
complex once per pass, as the rows are, and the convolutions share them, so
no multiply casts a factor. A convolution that no tree made in full reads
is last-only: after the same in-block steps it carries its blocks' last
rows alone, L_j = x_last,j + m^block L_(j-1), and then its final row, which
is all that is read of it; those rows get the full carry's bits.

The trees are built in one forward pass over time, a chunk of whole blocks
at a time (about _CHUNK_BYTES of half-spectrum rows, at least one block).
Inside a chunk the in-block steps run across the chunk's blocks at once:
about block steps per chunk and one carry per block, where a row loop
would take nt steps. The first block of a chunk takes its carry from the finished last row
of the chunk before, which each convolution keeps; output row n + 1 reads
forcing row n, so a convolution also keeps its forcing's last row. The
twisted products, the T11 stencil and the transforms act row by row. So
every chunking makes the additions and products of the whole-field
recurrence in the same order and gives the same bits. The noise is read a
chunk at a time too, with ``NoiseField.blocks``, which gives the same rows
in any chunking.

A statistic that reads a tree only at the final time slice names it in
``last``: the regularity table's space estimates read T1, T11 and T12
there, the Monte Carlo means of ``mc_summary`` every tree. Such a
tree is returned as that row alone, and where no convolution and no tree
returned in full reads it, it is made at that row alone. Every other
requested tree is copied into one full array as its chunks come; a tree
that is only read is not returned. ``lift_chunks`` also yields each
chunk's noise rows under NOISE_LABEL when asked, so a statistic of the
noise reads the rows the lift drew. The pass holds a few chunks, however
long the horizon; ``lift`` also holds the trees it returns in full, and
an explicit noise field holds its values.

The recursion is stated once, as a table of label: (the trees the rule
reads, the rule), every tree after the trees it reads. The labels and
``last`` are checked against it before any transform runs.
"""

from __future__ import annotations

import math
from itertools import pairwise

import numpy as np

from .grids import GridSpec, NoiseField
from .operators import OperatorFamily, _stencil, derivative_multiplier, stepping_multiplier, twisted_product
from .renorm import RenormConstants

__all__ = ["TREE_LABELS", "NOISE_LABEL", "lift", "lift_chunks", "lift_chunk_bytes", "mc_summary"]

TREE_LABELS = ("T1", "T2", "T11", "T21", "T12", "T22", "T122", "T124", "T1222")
NOISE_LABEL = "xi"  # a chunk's noise rows, which lift_chunks yields when asked

_CHUNK_BYTES = 3 << 19  # a chunk's half-spectrum (1.5 MiB), rounded down to whole blocks
_CHUNKS_HELD = 24  # chunk-sized arrays held at once: about 19 in a full lift written chunk by chunk


def _label_tuple(labels, name: str, known: tuple = TREE_LABELS) -> tuple:
    """``labels`` as a tuple of labels from ``known``; anything else is a ValueError."""
    if isinstance(labels, str):
        raise ValueError(f"{name} must be a sequence of tree labels, not the string {labels!r}; pass ({labels!r},)")
    labels = tuple(labels)
    for label in labels:
        if label not in known:
            raise ValueError(f"unknown tree label {label!r} in {name}; choose from {', '.join(known)}")
    return labels


def _block(grid: GridSpec) -> int:
    """The rows of a block of the recurrence, about sqrt(nt)."""
    return max(1, math.isqrt(grid.n_steps))


def _chunk_rows(grid: GridSpec) -> int:
    """Forcing rows per chunk: whole blocks, about _CHUNK_BYTES of half-spectrum, at least one block."""
    block = _block(grid)
    return block * max(1, _CHUNK_BYTES // (block * (grid.M // 2 + 1) * 16))


def _multipliers(fam: OperatorFamily, grid: GridSpec, step: int) -> tuple:
    """The recurrence's m, tiled to one row per block of a ``step``-row chunk, eps^2 Dx and m^(i+1) for row i of a block.

    m and the powers are complex, as the rows they multiply are: a float
    factor would be cast to (m, 0) on every call, the same bits at more cost.
    """
    half = grid.M // 2 + 1  # rfft modes 0..M/2
    block = _block(grid)
    m = stepping_multiplier(fam, grid.eps, grid.M)[:half]
    pref = grid.eps**2 * derivative_multiplier(fam, grid.eps, grid.M)[:half]
    carry_powers = (m ** np.arange(1, block + 1)[:, None]).astype(np.complex128)
    n_blocks = -(-min(step, max(grid.n_steps, 1)) // block)
    return np.tile(m.astype(np.complex128), (n_blocks, 1)), pref, carry_powers


def lift_chunk_bytes(grid: GridSpec) -> int:
    """About the most that a lift's pass holds at once besides its noise and the trees it returns in full."""
    return _CHUNKS_HELD * (_chunk_rows(grid) + 1) * (grid.M // 2 + 1) * 16


class _Convolution:
    """DxP * F by the blocked recurrence of the module docstring, one chunk per call.

    A call takes the half-spectrum of a chunk's rows and returns the output
    rows they drive, in a buffer that the next call overwrites; the first
    call's output starts with row 0, which is zero. With ``shifted`` the
    rows are those of a tree F: output row n + 1 reads row n, so a chunk's
    output reads the last row of the chunk before and all but its own last
    row, which is kept for the next call. Without, they are the forcing
    rows themselves (the noise). The finished last row of a chunk's last
    block is kept for the carries of the next.

    ``m`` (tiled to one row per block of the longest chunk) and
    ``carry_powers`` are complex, as the rows are, so no multiply casts.
    With ``last_only`` the output is read at its final row alone: the
    blocks' last rows are carried, in turn, and then the final row, and no
    other row. Those rows get the operations, and so the bits, of a full
    call.
    """

    def __init__(self, m: np.ndarray, pref: np.ndarray, carry_powers: np.ndarray, shifted: bool, last_only: bool):
        self.m, self.pref, self.carry_powers = m, pref, carry_powers
        self.shifted, self.last_only = shifted, last_only
        self.head = None  # the forcing row before this chunk's rows
        self.carry = None  # the finished last row of the chunk before
        self.out = None

    def __call__(self, f_hat: np.ndarray) -> np.ndarray:
        pref, carry_powers = self.pref, self.carry_powers
        block, half = carry_powers.shape
        head, first = self.head, self.out is None
        if self.shifted:
            self.head, f_hat = f_hat[-1].copy(), f_hat[:-1]
        k = len(f_hat) + (head is not None)
        n_blocks = -(-k // block)
        if first:  # sized by the first chunk, the longest; its row 0 stays zero
            self.out = np.zeros((n_blocks * block + 1, half), dtype=np.complex128)
            self.tmp = np.empty((max(n_blocks, block), half), dtype=np.complex128)
            self.columns = {}
        out = self.out[: n_blocks * block + 1]  # a short last block's rows past k are never read
        rows = out[1 : k + 1]
        if head is not None:
            np.multiply(pref, head, rows[0])
            rows = rows[1:]
        np.multiply(pref, f_hat, rows)
        blocks = out[1:].reshape(n_blocks, block, half)
        columns = self.columns.get(n_blocks)
        if columns is None:  # the views blocks[:, i], made once per chunk length
            columns = self.columns[n_blocks] = list(blocks.swapaxes(0, 1))
        m, tmp = self.m[:n_blocks], self.tmp[:n_blocks]
        for before, row in pairwise(columns):  # blocks[:, i] += m * blocks[:, i - 1]
            np.multiply(m, before, tmp)
            np.add(row, tmp, row)
        if self.last_only:
            self._carry_ends(blocks, k)
        else:
            tmp = self.tmp[:block]
            for j in range(n_blocks):  # blocks[j] += m^(i+1) * blocks[j - 1, -1]
                before = blocks[j - 1, -1] if j else self.carry
                if before is not None:
                    np.multiply(carry_powers, before, tmp)
                    np.add(blocks[j], tmp, blocks[j])
            if n_blocks:
                self.carry = blocks[-1, -1].copy()
        return out[: k + 1] if first else out[1 : k + 1]

    def _carry_ends(self, blocks: np.ndarray, k: int):
        """Carry the last rows of the chunk's whole blocks and then its final row, row k."""
        carry_powers, tmp = self.carry_powers, self.tmp[0]
        whole, i = divmod(k, len(carry_powers))
        before = self.carry
        for j in range(whole):  # L_j = x_last,j + m^block L_(j-1)
            if before is not None:
                np.multiply(carry_powers[-1], before, tmp)
                np.add(blocks[j, -1], tmp, blocks[j, -1])
            before = blocks[j, -1]
        if i and before is not None:  # the final row is row i - 1 of a short last block
            row = blocks[whole, i - 1]
            np.multiply(carry_powers[i - 1], before, tmp)
            np.add(row, tmp, row)
        if whole:
            self.carry = blocks[whole - 1, -1].copy()


def lift_chunks(noise: NoiseField, fam: OperatorFamily, consts: RenormConstants, labels=TREE_LABELS, last=()):
    """The trees of ``lift`` a chunk of time rows at a time: an iterator of (rows, {label: values}).

    ``rows`` is the slice of time indices a chunk covers; the chunks cover
    0..n_steps in order. Each chunk holds every tree that ``lift`` returns
    in full, the final chunk also the last row of each tree in ``last``,
    all with the bits ``lift`` returns. With NOISE_LABEL among ``labels``
    each chunk also holds the noise rows it was made from, rows.stop - 1 -
    k .. rows.stop - 2 for k of them, which concatenate to the noise's
    rows. The pass does not write a chunk's arrays again. The arguments are
    checked when this is called, before anything is computed.
    """
    if consts.family_fingerprint != fam.fingerprint():
        raise ValueError("constants were computed for a different family")
    if consts.grid_N != noise.grid.N:
        raise ValueError(f"constants at N={consts.grid_N} but noise at N={noise.grid.N}")
    labels, last = _label_tuple(labels, "labels", (NOISE_LABEL, *TREE_LABELS)), _label_tuple(last, "last")
    for label in last:
        if label not in labels:
            raise ValueError(f"last label {label!r} is not among the requested labels")
    return _stream(noise, fam, consts, labels, last)


_CONVOLVED = ("T1_hat", "DxP_T1_hat", "T12_hat", "T122_hat", "T124_hat", "T1222_hat")  # the convolutions' labels


def _stream(noise: NoiseField, fam: OperatorFamily, consts: RenormConstants, labels: tuple, last: tuple):
    grid = noise.grid
    nt, M = grid.n_steps, grid.M
    a, b = consts.c2, consts.c21
    step = _chunk_rows(grid)

    def field(f_hat: np.ndarray) -> np.ndarray:
        return np.fft.irfft(f_hat, n=M, axis=1)

    def hat(f: np.ndarray) -> np.ndarray:
        return np.fft.rfft(f, axis=1)

    def B(f, g):
        return twisted_product(fam.mu, f, g)

    def B_minus(f, g, c):
        """B(f, g) - c, subtracted in place on the product's fresh output."""
        p = B(f, g)
        p -= c
        return p

    # B(1, h) = sum_j2 (sum_j1 mu(j1, j2)) h(. + eps j2)
    marginal = {}
    for (_, j2), w in fam.mu.atoms:
        marginal[j2] = marginal.get(j2, 0.0) + w
    one_atoms = sorted(marginal.items())

    conv = {}  # the half-spectra of the convolutions, made below; only T1's is driven by the noise
    # label: (the trees its rule reads, the rule), each tree after the trees it
    # reads; NOISE_LABEL's entry is the chunk's noise rows
    table = {
        "T1_hat": ((NOISE_LABEL,), lambda xi: conv["T1_hat"](hat(xi))),
        "T1": (("T1_hat",), field),
        "DxP_T1_hat": (("T1_hat",), lambda t1_hat: conv["DxP_T1_hat"](t1_hat)),
        "T11": (("DxP_T1_hat",), lambda dxp_t1: _stencil(one_atoms, field(dxp_t1))),
        "T2": (("T1",), lambda t1: B_minus(t1, t1, a)),
        "T21": (("T11", "T1"), lambda t11, t1: B_minus(t11, t1, b)),
        "T12_hat": (("T2",), lambda t2: conv["T12_hat"](hat(t2))),
        "T12": (("T12_hat",), field),
        "T22": (("T12", "T1"), lambda t12, t1: B_minus(t12, t1, 2.0 * b * t1)),
        "T122_hat": (("T22",), lambda t22: conv["T122_hat"](hat(t22))),
        "T122": (("T122_hat",), field),
        "T124_hat": (("T12",), lambda t12: conv["T124_hat"](hat(B(t12, t12)))),
        "T124": (("T124_hat",), field),
        "T1222_hat": (("T122", "T1", "T12"), lambda t122, t1, t12: conv["T1222_hat"](hat(B_minus(t122, t1, b * t12)))),
        "T1222": (("T1222_hat",), field),
    }
    needed = set(labels)  # grows to the closure: a tree read by a needed tree comes before it
    for label, (reads, _) in reversed(table.items()):
        if label in needed:
            needed.update(reads)
    returned = [label for label in (NOISE_LABEL, *TREE_LABELS) if label in labels and label not in last]
    # every row is made of the trees returned in full, of the convolutions
    # and of what they read; the other needed trees only at the final row
    full = set(returned) | needed.intersection(_CONVOLVED)
    for label, (reads, _) in reversed(table.items()):
        if label in full:
            full.update(reads)

    # a convolution that no tree made in full reads is read at its final row
    # alone; the needed ones share the multipliers, made once per pass
    read_in_full = {read for label, (reads, _) in table.items() if label in full for read in reads}
    m, pref, carry_powers = _multipliers(fam, grid, step)
    for label in _CONVOLVED:
        if label in needed:
            last_only = label not in read_in_full
            conv[label] = _Convolution(m, pref, carry_powers, shifted=label != "T1_hat", last_only=last_only)

    for start, xi in zip(range(0, max(nt, 1), step), noise.blocks(step)):  # one chunk when there is no time step
        k = len(xi)
        final = start + k == nt
        trees = {NOISE_LABEL: xi}
        for label, (reads, rule) in table.items():
            if label in full:
                trees[label] = rule(*(trees[r] for r in reads))
            elif label in needed and final:
                trees[label] = rule(*(trees[r][-1:] for r in reads))
        chunk = {label: trees[label] for label in returned}
        if final:
            chunk.update((label, trees[label][-1:].copy()) for label in last)
        # output row n + 1 reads noise row n; the first chunk also holds row 0
        yield slice(start + 1 if start else 0, start + k + 1), chunk
        del chunk, trees  # hold nothing of this chunk while the next is made


def lift(noise: NoiseField, fam: OperatorFamily, consts: RenormConstants, labels=TREE_LABELS, last=()) -> dict:
    """Build the controlling processes for one noise realization: {label: field}.

    Each field has shape (n_steps + 1, M), time index n <-> t = n eps^2.
    Each tree is one entry of the table of ``lift_chunks``, listed after the
    trees its rule reads: one reverse pass over the table finds the
    requested ``labels`` plus exactly the trees their rules read, and one
    forward pass over time builds those (see the module docstring).
    Only the requested ``labels`` are returned. ``last`` names requested
    trees to return at the final time slice only, shape (1, M), with the
    same bits as the full tree's last row; it may name any of them. Every
    other requested tree is returned in full.
    The noise may be explicit or streamed; a streamed field is drawn a
    chunk at a time and gives the trees of the explicit field it stands
    for. Labels outside TREE_LABELS, a bare string and a ``last`` label that
    is not requested are refused before anything is computed.
    Deterministic in (noise, family, constants).
    """
    labels, last = _label_tuple(labels, "labels"), _label_tuple(last, "last")
    shape = (noise.grid.n_steps + 1, noise.grid.M)
    trees = {}
    for rows, chunk in lift_chunks(noise, fam, consts, labels, last):
        for label, values in chunk.items():
            if label in last:
                trees[label] = values
            else:
                if label not in trees:
                    trees[label] = np.empty(shape)
                trees[label][rows] = values
        chunk.clear()  # hold nothing of this chunk while the next is made
    return {label: trees[label] for label in TREE_LABELS if label in trees}


def mc_summary(fam: OperatorFamily, consts: RenormConstants, grid: GridSpec, seed: int, replicas: int, sink) -> list:
    """Rows (label, T, mean, stderr, replicas) of each tree at site 0 and time T; sink(label, values) gets replica 0."""
    if replicas < 1:
        raise ValueError(f"replicas: expected >= 1, got {replicas}")
    finals = {lab: [] for lab in TREE_LABELS}
    for rep in range(replicas):
        noise = NoiseField(grid, seed + rep)
        for span, chunk in lift_chunks(noise, fam, consts, last=() if rep == 0 else TREE_LABELS):
            if rep == 0:
                for lab, values in chunk.items():
                    sink(lab, values)
            if span.stop > grid.n_steps:  # the final chunk
                for lab in TREE_LABELS:
                    finals[lab].append(float(chunk[lab][-1, 0]))
            chunk.clear()  # hold nothing of this chunk while the next is made
    rows = []
    for lab, vals in finals.items():
        stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        rows.append((lab, grid.T, float(np.mean(vals)), stderr, replicas))
    return rows
