"""Atomic signed measures defining a discretization family.

A discretization family is a triple (nu, pi, mu): nu generates the discrete
Laplacian, pi the discrete spatial derivative, mu the twisted product. All
three are finite signed measures supported on integer lattice offsets. This
module holds the measure value types, the admissibility validators, their
Fourier transforms, and the two derived spectral functions

    f(k) = -nu_hat(k) / k^2        g(k) = pi_hat(k) / (i k)

whose removable singularities at k = 0 are filled by Taylor branches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AtomicMeasure1D",
    "AtomicMeasure2D",
    "ValidationReport",
    "Violation",
    "validate_nu",
    "validate_pi",
    "validate_mu",
    "fourier_nu",
    "fourier_pi",
    "fourier_mu",
    "f_of_k",
    "g_of_k",
    "TAYLOR_THRESHOLD",
    "preset_measure",
    "PRESET_NAMES",
]

# Below this |k| the direct quotients -nu_hat/k^2 and pi_hat/(ik) cancel
# catastrophically; a 4th-order series takes over.
TAYLOR_THRESHOLD = 1e-4
# interior points of (0, 1) on which validate_nu checks nu_hat < 0
NU_CHECK_POINTS = 4096


@dataclass(frozen=True)
class Violation:
    check: str
    measured: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an admissibility check: ok iff violations is empty."""

    ok: bool
    violations: tuple[Violation, ...] = ()
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ok != (len(self.violations) == 0):
            raise ValueError("ok flag inconsistent with violations list")


def _as_sorted_atoms(atoms):
    return tuple(sorted(atoms.items()))


@dataclass(frozen=True)
class AtomicMeasure1D:
    """Finite signed measure on the integers, support bounded by ``radius``.

    ``atoms`` maps a dimensionless lattice offset j to its real weight. At
    least one weight must be nonzero and every |j| must be <= radius.
    """

    atoms: tuple[tuple[int, float], ...]
    radius: int

    def __init__(self, atoms, radius=None):
        items = _as_sorted_atoms(dict(atoms))
        if not items:
            raise ValueError("measure needs at least one atom")
        rmax = max(abs(j) for j, _ in items)
        r = int(rmax if radius is None else radius)
        if r < 1:
            r = 1
        if rmax > r:
            raise ValueError(f"atom at |j|={rmax} outside radius {r}")
        if not all(math.isfinite(w) for _, w in items):
            raise ValueError("weights must be finite")
        if all(w == 0.0 for _, w in items):
            raise ValueError("at least one weight must be nonzero")
        object.__setattr__(self, "atoms", items)
        object.__setattr__(self, "radius", r)

    @property
    def offsets(self) -> np.ndarray:
        return np.array([j for j, _ in self.atoms], dtype=np.int64)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=np.float64)

    def moment(self, p: int) -> float:
        """Sum of j^p * weight(j)."""
        return float(np.sum(self.offsets.astype(np.float64) ** p * self.weights))

    def total_variation(self) -> float:
        return float(np.sum(np.abs(self.weights)))

    def to_json(self) -> dict:
        return {"atoms": [[int(j), float(w)] for j, w in self.atoms]}

    @classmethod
    def from_json(cls, obj) -> "AtomicMeasure1D":
        return cls({int(j): float(w) for j, w in obj["atoms"]})

    def canonical(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class AtomicMeasure2D:
    """Finite signed measure on integer pairs, support in a radius box."""

    atoms: tuple[tuple[tuple[int, int], float], ...]
    radius: int

    def __init__(self, atoms, radius=None):
        items = tuple(sorted(((int(a), int(b)), float(w)) for (a, b), w in dict(atoms).items()))
        rmax = max((max(abs(a), abs(b)) for (a, b), _ in items), default=0)
        r = int(rmax if radius is None else radius)
        if r < 1:
            r = 1
        if rmax > r:
            raise ValueError(f"atom outside radius {r}")
        if not all(math.isfinite(w) for _, w in items):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "atoms", items)
        object.__setattr__(self, "radius", r)

    @property
    def offsets(self) -> np.ndarray:
        return np.array([jk for jk, _ in self.atoms], dtype=np.int64).reshape(-1, 2)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=np.float64)

    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def to_json(self) -> dict:
        return {"atoms": [[int(a), int(b), float(w)] for (a, b), w in self.atoms]}

    @classmethod
    def from_json(cls, obj) -> "AtomicMeasure2D":
        return cls({(int(a), int(b)): float(w) for a, b, w in obj["atoms"]})

    def canonical(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Fourier transforms


def fourier_nu(m: AtomicMeasure1D, k):
    """nu_hat(k) = sum_j w_j cos(2 pi k j); real by symmetry, 1-periodic."""
    k = np.asarray(k, dtype=np.float64)
    val = np.sum(m.weights * np.cos(2.0 * np.pi * np.multiply.outer(k, m.offsets)), axis=-1)
    return val if val.ndim else float(val)


def fourier_pi(m: AtomicMeasure1D, k):
    """pi_hat(k) = sum_j w_j exp(-2 pi i k j)."""
    k = np.asarray(k, dtype=np.float64)
    phase = np.exp(-2j * np.pi * np.multiply.outer(k, m.offsets))
    val = np.sum(m.weights * phase, axis=-1)
    return val if val.ndim else complex(val)


def fourier_mu(m: AtomicMeasure2D, k1, k2):
    """mu_hat(k1, k2) = sum w exp(-2 pi i (k1 j1 + k2 j2)); mu_hat(0,0) = mass."""
    k1 = np.asarray(k1, dtype=np.float64)
    k2 = np.asarray(k2, dtype=np.float64)
    j = m.offsets
    phase = np.exp(-2j * np.pi * (np.multiply.outer(k1, j[:, 0]) + np.multiply.outer(k2, j[:, 1])))
    val = np.sum(m.weights * phase, axis=-1)
    return val if val.ndim else complex(val)


def f_of_k(m: AtomicMeasure1D, k):
    """-nu_hat(k)/k^2 with the k -> 0 limit filled by a 4th-order series.

    For an admissible nu the limit value is (2 pi)^2 * moment2 / 2, i.e.
    4 pi^2 when moment2 = 2. Continuous at 0 by construction.
    """
    k = np.asarray(k, dtype=np.float64)
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    out = np.empty_like(k)
    small = np.abs(k) < TAYLOR_THRESHOLD
    if np.any(~small):
        ks = k[~small]
        out[~small] = -fourier_nu(m, ks) / ks**2
    if np.any(small):
        m2, m4, m6 = m.moment(2), m.moment(4), m.moment(6)
        ks = k[small]
        tp = 2.0 * np.pi
        out[small] = tp**2 * m2 / 2.0 - tp**4 * m4 * ks**2 / 24.0 + tp**6 * m6 * ks**4 / 720.0
    return float(out[0]) if scalar else out


def g_of_k(m: AtomicMeasure1D, k):
    """pi_hat(k)/(ik); the removable k = 0 singularity takes the Taylor value.

    g(0) = -2 pi * moment1 = -2 pi for admissible pi, and conj(g(k)) = g(-k).
    """
    k = np.asarray(k, dtype=np.float64)
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    out = np.empty(k.shape, dtype=np.complex128)
    small = np.abs(k) < TAYLOR_THRESHOLD
    if np.any(~small):
        ks = k[~small]
        out[~small] = fourier_pi(m, ks) / (1j * ks)
    if np.any(small):
        s1, s2, s3, s4, s5 = (m.moment(p) for p in (1, 2, 3, 4, 5))
        ks = k[small]
        pi_ = np.pi
        out[small] = (
            -2.0 * pi_ * s1
            + 2j * pi_**2 * s2 * ks
            + (4.0 / 3.0) * pi_**3 * s3 * ks**2
            - (2.0 / 3.0) * 1j * pi_**4 * s4 * ks**3
            - (4.0 / 15.0) * pi_**5 * s5 * ks**4
        )
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Validators


def validate_nu(m: AtomicMeasure1D) -> ValidationReport:
    """Check the Laplacian-measure assumptions.

    (i) symmetry, (ii) zero mass, (iii) zero first moment, (iv) second
    moment 2, (v) nu_hat < 0 sampled on NU_CHECK_POINTS interior points of
    (0, 1). Failures are reported, never raised.
    """
    violations = []
    atoms = dict(m.atoms)
    asym = max((abs(w - atoms.get(-j, 0.0)) for j, w in atoms.items()), default=0.0)
    if asym > 1e-12:
        violations.append(Violation("symmetry", asym, "max |w(j) - w(-j)|"))
    mass = m.moment(0)
    if abs(mass) > 1e-12:
        violations.append(Violation("mass_zero", mass, "sum of weights"))
    m1 = m.moment(1)
    if abs(m1) > 1e-12:
        violations.append(Violation("first_moment_zero", m1, "sum j*w(j)"))
    m2 = m.moment(2)
    if abs(m2 - 2.0) > 1e-12:
        violations.append(Violation("second_moment_two", m2, "sum j^2*w(j)"))
    ks = np.linspace(0.0, 1.0, NU_CHECK_POINTS + 2)[1:-1]
    vals = fourier_nu(m, ks)
    worst = float(np.max(vals))
    if worst >= 0.0:
        violations.append(Violation("fourier_negative", worst, "max nu_hat on (0,1) grid"))
    return ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        info={"total_variation": m.total_variation(), "moments": (mass, m1, m2)},
    )


def validate_pi(m: AtomicMeasure1D) -> ValidationReport:
    """Check the derivative-measure assumptions: zero mass, first moment 1."""
    violations = []
    mass = m.moment(0)
    if abs(mass) > 1e-12:
        violations.append(Violation("mass_zero", mass, "sum of weights"))
    m1 = m.moment(1)
    if abs(m1 - 1.0) > 1e-12:
        violations.append(Violation("first_moment_one", m1, "sum j*w(j)"))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def validate_mu(m: AtomicMeasure2D) -> ValidationReport:
    """Check exchange symmetry of the product measure; report total mass.

    Mass 1 makes the solver preserve constants but is reported, not
    enforced.
    """
    violations = []
    atoms = dict(m.atoms)
    asym = max(
        (abs(w - atoms.get((b, a), 0.0)) for (a, b), w in atoms.items()),
        default=0.0,
    )
    if asym > 1e-12:
        violations.append(Violation("exchange_symmetry", asym, "max |w(a,b) - w(b,a)|"))
    return ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        info={"total_mass": m.total_mass()},
    )


# ---------------------------------------------------------------------------
# Presets

PRESET_NAMES = (
    "laplacian-nn",
    "deriv-backward",
    "deriv-central",
    "product-pointwise",
    "product-sasamoto-spohn",
)


def preset_measure(name: str):
    """Built-in named measures; 1D for nu/pi presets, 2D for products."""
    if name == "laplacian-nn":
        return AtomicMeasure1D({-1: 1.0, 0: -2.0, 1: 1.0})
    if name == "deriv-backward":
        return AtomicMeasure1D({0: 1.0, -1: -1.0})
    if name == "deriv-central":
        return AtomicMeasure1D({1: 0.5, -1: -0.5})
    if name == "product-pointwise":
        return AtomicMeasure2D({(0, 0): 1.0})
    if name == "product-sasamoto-spohn":
        third = 1.0 / 3.0
        sixth = 1.0 / 6.0
        return AtomicMeasure2D({(1, 1): third, (0, 1): sixth, (1, 0): sixth, (0, 0): third})
    raise KeyError(f"unknown preset {name!r}; choices: {', '.join(PRESET_NAMES)}")
