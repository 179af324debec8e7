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
The three operators, and the T11 stencil of ``processes.lift``, run on one
blocked shift-and-sum engine. It copies about _BLOCK_BYTES of rows at a
time into a flat buffer that lays the rows end to end, each with r
wrapped ghost sites on either side (``_Wrapped``),
so u(. + eps j) is one contiguous view that holds it at columns
r + j .. r + j + M - 1 of every padded row. The engine does not run its
sums but emits them: ``_program`` lists the ufunc calls, each with its
operands and a positional output, that add the terms in atom order (the
twisted product sums the g stencil once per first offset of mu), from the
first term, then +0.0: a zero start's bits. Those are the operations, in
the order, of rolling the field once per offset, so the results equal the
``np.roll`` spelling bit for bit, and no field-sized temporary is made
beyond the result. The operators build a program per block size and
replay it on every block (``_run``); the solver binds a held step's whole
program once per block of states, kept in the engine's padded layout. The
Fourier side supplies their multipliers; ``_blocks`` cuts the other
modules' whole-field passes into slices of about _BLOCK_BYTES.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
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
    "check_parseval_twisted",
    "check_wrap",
]


@dataclass(frozen=True)
class OperatorFamily:
    """Validated (nu, pi, mu) triple with the total variation nu_bar of nu cached (not an argument)."""

    nu: AtomicMeasure1D
    pi: AtomicMeasure1D
    mu: AtomicMeasure2D
    nu_bar: float = field(init=False)

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
# added to every finished engine sum; a 0-d array costs less per call than a Python float
_PLUS_ZERO = np.array(0.0)


def check_wrap(radius: int, M: int) -> None:
    """Refuse a stencil reaching ``radius`` sites that wraps the M-site torus."""
    if radius >= M / 2:
        raise ValueError(f"measure radius {radius} wraps on M={M} torus")


def _periodic(measure, u) -> np.ndarray:
    """u as float64, once the measure's support is known not to wrap the torus."""
    u = np.asarray(u, dtype=np.float64)
    check_wrap(measure.radius, u.shape[-1])
    return u


def _terms(atoms, bilinear: bool = False) -> tuple:
    """The engine's terms for a measure's atoms.

    A stencil is the one term (None, ((j, w), ...)); the twisted product has
    a term (j1, ((j2, w), ...)) per first offset j1 of mu. mu's atoms are
    sorted, so groupby meets each first offset once. Each weight is a 0-d
    float64 array, which numpy multiplies by with less overhead per call
    than a Python float and to the same bits. Atoms of weight zero are left
    out: on finite fields they add signed zeros, whose sign the final +0.0
    of ``_program`` drops, so a measure of zero weights has no terms.
    """
    atoms = [(j, w) for j, w in atoms if w != 0.0]
    if not bilinear:
        return ((None, tuple((int(j), np.array(w, dtype=np.float64)) for j, w in atoms)),) if atoms else ()
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
    ``wrapping`` is the program of the wrap for the n rows in use.
    """

    def __init__(self, rows: int, M: int, r: int):
        self.M, self.r, self.W = M, r, M + 2 * r
        # zeros: the spare sites are read by at(j) though no result uses them
        self.buf = np.zeros(rows * self.W + 2 * r)
        self.use(rows)

    def use(self, n: int) -> None:
        r, M = self.r, self.M
        self.n, self.size = n, n * self.W
        self.rows = rows = self.buf[r : r + self.size].reshape(n, self.W)
        self.center = rows[:, r : r + M]
        self.wrapping = (
            [(np.copyto, (rows[:, :r], rows[:, M : M + r])), (np.copyto, (rows[:, M + r :], rows[:, r : 2 * r]))]
            if r
            else []
        )

    def core(self, padded: np.ndarray) -> np.ndarray:
        """The (n, M) sites of an array in the padded layout."""
        return padded.reshape(self.n, self.W)[:, self.r : self.r + self.M]

    def wrap(self) -> None:
        _run(self.wrapping)

    def load(self, u: np.ndarray) -> None:
        np.copyto(self.center, u)
        self.wrap()

    def at(self, j: int) -> np.ndarray:
        return self.buf[self.r + j : self.r + j + self.size]


def _run(program) -> None:
    """Make the calls of a program, a list of (function, arguments), in order."""
    for call, args in program:
        call(*args)


def _program(out, terms, g: _Wrapped, f: _Wrapped | None, acc, tmp) -> list:
    """The calls that set out to the sum of the terms over g's and f's rows, from the first term, then +0.0.

    A (None, atoms) term adds sum_j w g(. + eps j); a (j1, atoms) term adds
    f(. + eps j1) times sum_j2 w g(. + eps j2), which acc sums from its
    first atom. out, acc and tmp are flat arrays in the padded layout of g
    and f. A zero start's sum is never -0.0, and it differs from this one
    at most in the sign of a zero, so the final +0.0 gives a zero start's
    bits; with no terms, out is +0.0 (one ``np.copyto``). Every other call
    is (ufunc, (operands..., out)), its output positional. The calls read
    the views that g and f have for the rows in use, so the program serves
    every load of that many rows.
    """
    if not terms:
        return [(np.copyto, (out, _PLUS_ZERO))]
    calls = []
    for i, (j1, atoms) in enumerate(terms):
        into = out if j1 is None else acc
        (j, w), *rest = atoms
        calls.append((np.multiply, (w, g.at(j), into)))
        for j, w in rest:
            calls += [(np.multiply, (w, g.at(j), tmp)), (np.add, (into, tmp, into))]
        if j1 is not None and i == 0:
            calls.append((np.multiply, (acc, f.at(j1), out)))
        elif j1 is not None:
            calls += [(np.multiply, (acc, f.at(j1), tmp)), (np.add, (out, tmp, out))]
    calls.append((np.add, (out, _PLUS_ZERO, out)))
    return calls


def _apply(terms, g: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
    """The engine on a whole field (..., M), prepared for it and run a block of rows at a time.

    f is read only by bilinear terms; when it is g, one buffer serves both.
    The program is built for the first block and again for a short last one.
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
    total, acc, tmp = scratch
    program = _program(total, terms, gw, fw, acc, tmp)
    for a in range(0, R, rows):
        n = min(rows, R - a)
        if n != gw.n:  # a short last block
            gw.use(n)
            fw.use(n)
            total, acc, tmp = scratch[:, : gw.size]
            program = _program(total, terms, gw, fw, acc, tmp)
        gw.load(g2[a : a + n])
        if fw is not gw:
            fw.load(f2[a : a + n])
        _run(program)
        np.copyto(out[a : a + n], gw.core(total))
    return out.reshape(shape)


def _stencil(atoms, u: np.ndarray) -> np.ndarray:
    """sum_j w_j u(. + eps j) along the last axis, added in atom order."""
    terms = _terms(atoms)
    u = np.asarray(u, dtype=np.float64)
    check_wrap(_reach(terms), u.shape[-1])
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
