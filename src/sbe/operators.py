"""Discrete Laplacian, derivative and twisted product, and their multipliers.

All three operators act on periodic fields through the family's atomic
measures:

    lap u(x)  = 1/(2 nu_bar eps^2) * sum_j nu(j)  u(x + eps j)
    der u(x)  = 1/eps              * sum_j pi(j)  u(x + eps j)
    B(f,g)(x) =                      sum_{j1,j2} mu(j1,j2) f(x+eps j1) g(x+eps j2)

The DFT convention carries the eps weight on the forward transform,
F u(k) = eps * sum_x u(x) e^{-2 pi i k x}, with the inverse being the plain
mode sum; on the torus the modes are the integers in [-M/2, M/2). Twisted
Parseval: eps * sum_x B(f,g) = sum_k F f(k) F g(-k) mu_hat(-eps k, eps k).
The three operators, and the space pass of ``grids.mollify``, run on one
blocked shift-and-sum engine. It copies about _BLOCK_BYTES of rows at a
time into a flat buffer that lays the rows end to end, each with r
wrapped ghost sites on either side (``_Wrapped``),
so u(. + eps j) is one contiguous view that holds it at columns
r + j .. r + j + M - 1 of every padded row. ``_accumulate`` adds the terms
with ``out=`` ufuncs from a zero start in atom order (the twisted product
sums the g stencil once per first offset of mu). Those are the operations,
in the order, of rolling the field once per offset, so the results equal
the ``np.roll`` spelling bit for bit, and no field-sized temporary is made
beyond the result. The operators prepare the engine per call; the solver
holds one prepared step per level. The Fourier side supplies their
multipliers and the time convolution the other layers share. That
convolution keeps one (L, W) spectrum and transforms, multiplies and
inverts it in place one block of about _BLOCK_BYTES of columns at a time,
which gives the whole-array transforms bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .measures import (
    AtomicMeasure1D,
    AtomicMeasure2D,
    fourier_mu,
    fourier_nu,
    fourier_pi,
    validate_mu,
    validate_nu,
    validate_pi,
)

__all__ = [
    "OperatorFamily",
    "laplacian",
    "derivative",
    "twisted_product",
    "modes",
    "stepping_multiplier",
    "derivative_multiplier",
    "time_convolve",
    "check_parseval_twisted",
]


@dataclass(frozen=True)
class OperatorFamily:
    """Validated (nu, pi, mu) triple with the total variation nu_bar cached."""

    nu: AtomicMeasure1D
    pi: AtomicMeasure1D
    mu: AtomicMeasure2D
    nu_bar: float = 0.0

    def __post_init__(self):
        problems = []
        for label, report in (
            ("nu", validate_nu(self.nu)),
            ("pi", validate_pi(self.pi)),
            ("mu", validate_mu(self.mu)),
        ):
            problems += [f"{label}.{v.check}={v.measured:g}" for v in report.violations]
        if problems:
            raise ValueError("inadmissible family: " + "; ".join(problems))
        object.__setattr__(self, "nu_bar", self.nu.total_variation())

    def fingerprint(self) -> str:
        blob = "|".join([self.nu.canonical(), self.pi.canonical(), self.mu.canonical()])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# one block of wrapped rows holds about this many bytes, so it stays in cache
_BLOCK_BYTES = 128 * 1024


def _check_wrap(radius: int, M: int) -> None:
    if radius >= M / 2:
        raise ValueError(f"measure radius {radius} wraps on M={M} torus")


def _periodic(measure, u) -> np.ndarray:
    """u as float64, once the measure's support is known not to wrap the torus."""
    u = np.asarray(u, dtype=np.float64)
    _check_wrap(measure.radius, u.shape[-1])
    return u


def _terms(atoms, bilinear: bool = False) -> tuple:
    """The engine's terms for a measure's atoms.

    A stencil is the one term (None, ((j, w), ...)); the twisted product has
    a term (j1, ((j2, w), ...)) per first offset j1 of mu. mu's atoms are
    sorted, so groupby meets each first offset once. Each weight is a 0-d
    float64 array, which numpy multiplies by with less overhead per call
    than a Python float and to the same bits.
    """
    if not bilinear:
        return ((None, tuple((int(j), np.array(w, dtype=np.float64)) for j, w in atoms)),)
    return tuple(
        (int(j1), tuple((int(j2), np.array(w, dtype=np.float64)) for (_, j2), w in run))
        for j1, run in groupby(atoms, key=lambda atom: atom[0][0])
    )


def _reach(terms) -> int:
    """The largest |offset| the terms read: the ghost sites they need."""
    offsets = [j for _, atoms in terms for j, _ in atoms] + [j1 for j1, _ in terms if j1 is not None]
    return max(map(abs, offsets), default=0)


def _block_rows(M: int, r: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * (M + 2 * r)))


def _blocks(n: int, item_bytes: int) -> list[slice]:
    """Consecutive slices covering range(n), each about _BLOCK_BYTES of items item_bytes wide."""
    step = max(1, _BLOCK_BYTES // item_bytes)
    return [slice(a, min(n, a + step)) for a in range(0, n, step)]


class _Wrapped:
    """Rows of M sites laid end to end, each with r <= M wrapped ghost sites on either side.

    The flat buffer holds r spare sites, n padded rows of W = M + 2r sites
    (``rows``, with the sites themselves in ``center``) and r spare sites;
    ``use`` sets n. Once the rows are loaded and wrapped, ``at(j)`` is a
    contiguous view of n W sites whose padded row i holds u_i(x + eps j) at
    position r + x, for |j| <= r. Its ghost positions hold values of no use,
    which ``core`` leaves out of any array in this padded layout.
    """

    def __init__(self, rows: int, M: int, r: int):
        self.M, self.r, self.W = M, r, M + 2 * r
        # zeros: the spare sites are read by at(j) though no result uses them
        self.buf = np.zeros(rows * self.W + 2 * r)
        self.use(rows)

    def use(self, n: int) -> None:
        self.n, self.size = n, n * self.W
        self.rows = self.buf[self.r : self.r + self.size].reshape(n, self.W)
        self.center = self.core(self.rows)
        self.views = {}

    def core(self, padded: np.ndarray) -> np.ndarray:
        """The (n, M) sites of an array in the padded layout."""
        return padded.reshape(self.n, self.W)[:, self.r : self.r + self.M]

    def wrap(self) -> None:
        r, M = self.r, self.M
        if r:
            np.copyto(self.rows[:, :r], self.rows[:, M : M + r])
            np.copyto(self.rows[:, M + r :], self.rows[:, r : 2 * r])

    def load(self, u: np.ndarray) -> None:
        np.copyto(self.center, u)
        self.wrap()

    def at(self, j: int) -> np.ndarray:
        view = self.views.get(j)
        if view is None:
            view = self.views[j] = self.buf[self.r + j : self.r + j + self.size]
        return view


def _accumulate(out, terms, g: _Wrapped, f: _Wrapped | None, acc, tmp) -> None:
    """out = the sum of the terms over the loaded rows, added in order from zero.

    A (None, atoms) term adds sum_j w g(. + eps j); a (j1, atoms) term adds
    f(. + eps j1) times sum_j2 w g(. + eps j2), which acc sums from zero.
    out, acc and tmp are flat arrays in the padded layout of g and f.
    """
    out.fill(0.0)
    for j1, atoms in terms:
        into = out if j1 is None else acc
        if j1 is not None:
            acc.fill(0.0)
        for j, w in atoms:
            np.multiply(w, g.at(j), out=tmp)
            np.add(into, tmp, out=into)
        if j1 is not None:
            np.multiply(acc, f.at(j1), out=tmp)
            np.add(out, tmp, out=out)


def _apply(terms, g: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
    """The engine on a whole field (..., M), prepared for it and run a block of rows at a time.

    f is read only by bilinear terms; when it is g, one buffer serves both.
    """
    shape, M = g.shape, g.shape[-1]
    r = _reach(terms)
    g2 = g.reshape(-1, M)
    f2 = None if f is None or f is g else f.reshape(-1, M)
    R = g2.shape[0]
    rows = max(1, min(R, _block_rows(M, r)))
    gw = _Wrapped(rows, M, r)
    fw = gw if f2 is None else _Wrapped(rows, M, r)
    scratch = np.empty((3, gw.size))
    out = np.empty((R, M))
    for a in range(0, R, rows):
        n = min(rows, R - a)
        if n != gw.n:
            gw.use(n)
            fw.use(n)
        gw.load(g2[a : a + n])
        if fw is not gw:
            fw.load(f2[a : a + n])
        total, acc, tmp = scratch[:, : gw.size]
        _accumulate(total, terms, gw, fw, acc, tmp)
        np.copyto(out[a : a + n], gw.core(total))
    return out.reshape(shape)


def _stencil(atoms, u: np.ndarray) -> np.ndarray:
    """sum_j w_j u(. + eps j) along the last axis, added in atom order."""
    terms = _terms(atoms)
    u = np.asarray(u, dtype=np.float64)
    _check_wrap(_reach(terms), u.shape[-1])
    return _apply(terms, u)


def modes(M: int) -> np.ndarray:
    """Integer torus frequencies in FFT order: 0..M/2-1, -M/2..-1."""
    return np.rint(np.fft.fftfreq(M) * M).astype(np.int64)


def stepping_multiplier(fam: OperatorFamily, eps: float, M: int) -> np.ndarray:
    """m(k) = 1 + nu_hat(eps k) / (2 nu_bar) over FFT-ordered modes.

    One explicit heat step u + eps^2 lap u multiplies mode k by m(k).
    """
    return 1.0 + fourier_nu(fam.nu, eps * modes(M)) / (2.0 * fam.nu_bar)


def derivative_multiplier(fam: OperatorFamily, eps: float, M: int) -> np.ndarray:
    """Eigenvalues pi_hat(-eps k) / eps over FFT-ordered modes."""
    k = modes(M)
    return fourier_pi(fam.pi, -eps * k) / eps


def _time_length(n: int) -> int:
    """The power of two L >= n that time convolutions zero-pad to."""
    L = 1
    while L < n:
        L *= 2
    return L


def _time_spectrum(a: np.ndarray, L: int, out: np.ndarray | None = None) -> np.ndarray:
    """The length-L FFT along axis 0 of a (n, W), computed a block of columns at a time into one (L, W) array.

    The array is ``out`` when given, a complex (L, W) view the caller owns.
    a may be the head rows of ``out``: each block of columns is read whole
    before it is written, so the transform then runs in place.
    """
    spec = np.empty((L, a.shape[1]), dtype=np.complex128) if out is None else out
    for cols in _blocks(a.shape[1], 16 * L):
        spec[:, cols] = np.fft.fft(a[:, cols], n=L, axis=0)
    return spec


def _convolve_spectrum(spec: np.ndarray, b: np.ndarray) -> None:
    """Multiply spec (L, W) by the length-L FFT along axis 0 of b and invert, in place.

    A block of columns at a time; b is (n, W), or (n, 1) for weights shared
    by every column, which are transformed once.
    """
    L, W = spec.shape
    if b.shape[1] not in (1, W):
        raise ValueError(f"time convolution of widths {W} and {b.shape[1]}")
    shared = np.fft.fft(b, n=L, axis=0) if b.shape[1] == 1 else None
    for cols in _blocks(W, 16 * L):
        block = spec[:, cols]
        block *= np.fft.fft(b[:, cols], n=L, axis=0) if shared is None else shared
        block[...] = np.fft.ifft(block, axis=0)


def time_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution along axis 0 of (n, W) fields, zero-padded to a power of two.

    Returns rows 0..n1+n2-2 of sum_s a[s] b[n - s] as complex values. b may
    be a (n, 1) view of 1-d weights shared by every column. The (L, W)
    spectrum is the only field-sized array: each block of about
    _BLOCK_BYTES of its columns is transformed, multiplied and inverted in
    place, which gives the whole-array transforms bit for bit.
    """
    n1, n2 = a.shape[0], b.shape[0]
    spec = _time_spectrum(a, _time_length(n1 + n2))
    _convolve_spectrum(spec, b)
    return spec[: n1 + n2 - 1]


def laplacian(fam: OperatorFamily, u: np.ndarray, eps: float) -> np.ndarray:
    """Periodic discrete Laplacian of one slice (or along the last axis)."""
    out = _apply(_terms(fam.nu.atoms), _periodic(fam.nu, u))
    return np.multiply(1.0 / (2.0 * fam.nu_bar * eps**2), out, out=out)


def derivative(fam: OperatorFamily, u: np.ndarray, eps: float) -> np.ndarray:
    """Periodic discrete derivative; output has exact zero spatial mean."""
    out = _apply(_terms(fam.pi.atoms), _periodic(fam.pi, u))
    return np.multiply(1.0 / eps, out, out=out)


def twisted_product(mu: AtomicMeasure2D, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """B(f, g) under mu; bilinear, symmetric when mu is exchange-symmetric."""
    f = _periodic(mu, f)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape:
        raise ValueError("twisted product needs matching shapes")
    return _apply(_terms(mu.atoms, bilinear=True), g, f)


def check_parseval_twisted(fam: OperatorFamily, f: np.ndarray, g: np.ndarray, eps: float) -> float:
    """Residual of the twisted Parseval identity (torus mode sum form)."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    M = f.shape[-1]
    lhs = eps * np.sum(twisted_product(fam.mu, f, g))
    Ff = eps * np.fft.fft(f, axis=-1)
    Fg = eps * np.fft.fft(g, axis=-1)
    k = modes(M)
    Fg_neg = Fg[(-k) % M]
    mu_hat = fourier_mu(fam.mu, -eps * k, eps * k)
    rhs = np.sum(Ff * Fg_neg * mu_hat)
    return float(abs(lhs - rhs))
