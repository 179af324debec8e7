"""The nine discrete controlling processes and their remainders.

Each tree field is built from one noise realization by alternating causal
space-time kernel convolutions with twisted products, subtracting the
renormalization constants a (for the squared response) and b (for the
drift-generating tree) where the recursion prescribes them:

    T1    = DxK * xi                 T11  = B(1, DxK * T1)
    T2    = B(T1, T1) - a            T21  = B(T11, T1) - b
    T12   = DxK * T2                 T22  = B(T12, T1) - 2 b T1
    T122  = DxK * T22                T124 = DxP * B(T12, T12)
    T1222 = DxP * (B(T122, T1) - b T12)

``K`` is the full kernel P when kernel mode is "full_P" (the constants are
defined against the full kernel) or the cutoff singular part when
"split_K"; the last two trees always use P. Space convolutions are
spectral; the time convolution is the causal Riemann sum
eps^2 sum_{s < t} H_{t - s - eps^2} F_s, the offset that makes the mild
form reproduce the forward scheme exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, NoiseField
from .heat import HeatKernel
from .operators import OperatorFamily, derivative_multiplier, time_convolve, twisted_product
from .renorm import RenormConstants

__all__ = [
    "TreeProcessSet",
    "RemainderSample",
    "TREE_LABELS",
    "lift",
    "remainder_r21",
    "remainder_r1222",
    "sample_remainder",
    "singular_order_probe",
]

TREE_LABELS = ("T1", "T2", "T11", "T21", "T12", "T22", "T122", "T124", "T1222")

_REQUIRES = {
    "T1": (),
    "T11": ("T1",),
    "T2": ("T1",),
    "T21": ("T11", "T1"),
    "T12": ("T2",),
    "T22": ("T12", "T1"),
    "T122": ("T22",),
    "T124": ("T12",),
    "T1222": ("T122", "T1", "T12"),
}


@dataclass
class TreeProcessSet:
    """One realization of the controlling processes on a shared grid.

    fields[label] has shape (n_steps + 1, M), time index n <-> t = n eps^2.
    ``dxp_t1`` caches DxP * T1 for the second remainder.
    """

    grid: GridSpec
    fields: dict
    a: float
    b: float
    kernel_mode: str
    family_fingerprint: str
    dxp_t1: np.ndarray | None = None

    def __getitem__(self, label: str) -> np.ndarray:
        return self.fields[label]


def _closure(labels) -> set:
    todo = list(labels)
    seen = set()
    while todo:
        lab = todo.pop()
        if lab in seen:
            continue
        seen.add(lab)
        todo.extend(_REQUIRES[lab])
    return seen


class _Lifter:
    def __init__(self, noise: NoiseField, fam: OperatorFamily, mode: str):
        self.grid = noise.grid
        self.fam = fam
        self.mode = mode
        self.eps = self.grid.eps
        self.nt = self.grid.n_steps
        self.hk = HeatKernel(self.grid, fam)
        self.dmult = derivative_multiplier(fam, self.eps, self.grid.M)
        self.xi_hat = np.fft.fft(noise.values, axis=1)
        self._k_hat = None

    def conv_p(self, f_hat: np.ndarray) -> np.ndarray:
        """Causal DxP convolution via the geometric recurrence in k-space."""
        m = self.hk.multiplier
        pref = self.eps**2 * self.dmult
        out = np.zeros((self.nt + 1, f_hat.shape[1]), dtype=np.complex128)
        for n in range(1, self.nt + 1):
            out[n] = m * out[n - 1] + pref * f_hat[n - 1]
        return out

    def conv_k(self, f_hat: np.ndarray) -> np.ndarray:
        """Causal DxK convolution for the cutoff kernel, FFT along time."""
        if self._k_hat is None:
            split = self.hk.split(self.grid.T)
            self._k_hat = np.fft.fft(split.K, axis=1) * self.dmult
        full = time_convolve(self._k_hat[: self.nt], f_hat[: self.nt])[: self.nt]
        out = np.zeros((self.nt + 1, f_hat.shape[1]), dtype=np.complex128)
        out[1:] = self.eps**3 * full
        return out

    def conv(self, f_hat: np.ndarray) -> np.ndarray:
        return self.conv_p(f_hat) if self.mode == "full_P" else self.conv_k(f_hat)

    @staticmethod
    def to_field(hat: np.ndarray) -> np.ndarray:
        return np.fft.ifft(hat, axis=1).real

    @staticmethod
    def to_hat(field: np.ndarray) -> np.ndarray:
        return np.fft.fft(field, axis=1)


def lift(
    noise: NoiseField,
    fam: OperatorFamily,
    consts: RenormConstants,
    mode: str = "full_P",
    labels=TREE_LABELS,
) -> TreeProcessSet:
    """Build the controlling processes for one noise realization.

    ``labels`` restricts the computation to the requested trees plus their
    dependency closure. Deterministic in (noise, family, constants, mode).
    """
    if mode not in ("full_P", "split_K"):
        raise ValueError(f"unknown kernel mode {mode!r}")
    if consts.family_fingerprint != fam.fingerprint():
        raise ValueError("constants were computed for a different family")
    if consts.grid_N != noise.grid.N:
        raise ValueError(f"constants at N={consts.grid_N} but noise at N={noise.grid.N}")
    wanted = _closure(labels)
    a, b = consts.c2, consts.c21
    lf = _Lifter(noise, fam, mode)

    def B(f, g):
        return twisted_product(fam.mu, f, g)

    fields: dict[str, np.ndarray] = {}
    hats: dict[str, np.ndarray] = {}
    hats["T1"] = lf.conv(lf.xi_hat)
    fields["T1"] = lf.to_field(hats["T1"])
    if "T11" in wanted:
        w_inner = lf.to_field(lf.conv(hats["T1"]))
        ones = np.ones_like(fields["T1"])
        fields["T11"] = B(ones, w_inner)
    if "T2" in wanted:
        fields["T2"] = B(fields["T1"], fields["T1"]) - a
    if "T21" in wanted:
        fields["T21"] = B(fields["T11"], fields["T1"]) - b
    if "T12" in wanted:
        hats["T12"] = lf.conv(lf.to_hat(fields["T2"]))
        fields["T12"] = lf.to_field(hats["T12"])
    if "T22" in wanted:
        fields["T22"] = B(fields["T12"], fields["T1"]) - 2.0 * b * fields["T1"]
    if "T122" in wanted:
        fields["T122"] = lf.to_field(lf.conv(lf.to_hat(fields["T22"])))
    if "T124" in wanted:
        fields["T124"] = lf.to_field(lf.conv_p(lf.to_hat(B(fields["T12"], fields["T12"]))))
    dxp_t1 = None
    if "T1222" in wanted:
        dxp_t1 = lf.to_field(lf.conv_p(hats["T1"]))
        arg = B(fields["T122"], fields["T1"]) - b * fields["T12"]
        fields["T1222"] = lf.to_field(lf.conv_p(lf.to_hat(arg)))

    return TreeProcessSet(
        grid=noise.grid,
        fields=fields,
        a=a,
        b=b,
        kernel_mode=mode,
        family_fingerprint=consts.family_fingerprint,
        dxp_t1=dxp_t1,
    )


@dataclass(frozen=True)
class RemainderSample:
    """One evaluated remainder: which tree, where expanded, where probed."""

    label: str
    base_point: tuple
    evaluation_point: tuple
    value: float

    def __post_init__(self):
        if self.label not in ("R21", "R1222"):
            raise ValueError("label must be R21 or R1222")
        if not np.isfinite(self.value):
            raise ValueError("remainder value must be finite")


def sample_remainder(tps: "TreeProcessSet", fam: OperatorFamily, label: str, base, point) -> RemainderSample:
    """Evaluate one remainder and wrap it with its provenance."""
    if label == "R21":
        t_idx, x_idx = base
        _, y_idx = point
        value = remainder_r21(tps, fam, t_idx, x_idx, y_idx)
        point = (t_idx, y_idx)
    elif label == "R1222":
        value = remainder_r1222(tps, fam, base, point)
    else:
        raise ValueError("label must be R21 or R1222")
    return RemainderSample(label=label, base_point=tuple(base), evaluation_point=tuple(point), value=value)


def remainder_r21(tps: TreeProcessSet, fam: OperatorFamily, t_idx: int, x_idx: int, y_idx: int) -> float:
    """R21(t, x; y) = T21(t, y) - int T11(t, x+y1) T1(t, y+y2) mu(dy1, dy2)."""
    M = tps.grid.M
    t11 = tps["T11"][t_idx]
    t1 = tps["T1"][t_idx]
    acc = 0.0
    for (j1, j2), w in fam.mu.atoms:
        acc += w * t11[(x_idx + j1) % M] * t1[(y_idx + j2) % M]
    return float(tps["T21"][t_idx, y_idx] - acc)


def remainder_r1222(tps: TreeProcessSet, fam: OperatorFamily, z: tuple, zbar: tuple) -> float:
    """R1222(z; zbar) with the cached DxP * T1 from the lift."""
    if tps.dxp_t1 is None:
        raise ValueError("lift did not build T1222 / the cached DxP*T1")
    M = tps.grid.M
    (t_idx, x_idx), (tb_idx, xb_idx) = z, zbar
    t122 = tps["T122"][t_idx]
    dxp = tps.dxp_t1[tb_idx]
    acc = 0.0
    for (j1, j2), w in fam.mu.atoms:
        acc += w * t122[(x_idx + j1) % M] * dxp[(xb_idx + j2) % M]
    return float(tps["T1222"][tb_idx, xb_idx] - acc)


def singular_order_probe(values: np.ndarray, grid: GridSpec, claimed_order: float) -> float:
    """Sup of |forward-difference derivatives| / |z|_{s,eps}^(zeta - |k|_s).

    Thin wrapper over the singular-kernel order norm at derivative depth 2;
    a value stable across N certifies the claimed order empirically.
    """
    from .kernels import DiscreteKernel, order_norm

    return order_norm(DiscreteKernel(values=values, grid=grid, claimed_order=claimed_order), claimed_order, m=2)
