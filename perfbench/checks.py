"""Independent checks on the outputs of the CLI experiments, and their self-test.

Every check reads the files an experiment wrote and compares them with a
computation of the benchmark's own (stencils and spectra rebuilt from the
measure atoms in ``workloads``, noise redrawn from the documented Philox
streams, checksums from ``hashlib``) or with a property the method must
have. A check is a list of named sub-checks; each returns a list of
problems, empty when the output passes.

``CORRUPTIONS`` pairs each sub-check with one way of damaging the file it
reads. ``self_test`` applies each damage to a real output, runs the one
sub-check, expects a problem, and restores the file byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics

import numpy as np

from workloads import DERIV_BACKWARD, LAPLACIAN_NN, PRODUCT_ATOMS

# Regularity exponents of the paper's table.
PAPER_EXPONENTS = {"T1": -0.5, "T11": 0.5, "T2": -1.0, "T12": 0.0, "noise": -1.5}
# Per-replica standard deviation of each exponent at N = 8, T = 0.125,
# pooled over 46 replicas (README, "Regularity tolerance").
EXPONENT_REPLICA_SD = {"T1": 0.21, "T11": 0.23, "T2": 0.24, "T12": 0.34, "noise": 0.10}
EXPONENT_BIAS_ALLOWANCE = 0.1
EXPONENT_SIGMAS = 4.0
# Bound on |mean T2 - E[T2]| in population standard errors (README).
T2_MEAN_SIGMAS = 5.0


def exponent_tolerance(label: str, replicas: int) -> float:
    return EXPONENT_BIAS_ALLOWANCE + EXPONENT_SIGMAS * EXPONENT_REPLICA_SD[label] / math.sqrt(replicas)


# ---------------------------------------------------------------------------
# readers and the measures rebuilt from their atoms


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def read_field(outdir: str, name: str) -> tuple[np.ndarray, dict]:
    with open(os.path.join(outdir, f"{name}.json")) as fh:
        meta = json.load(fh)
    values = np.fromfile(os.path.join(outdir, f"{name}.bin"), dtype="<f8")
    return values.reshape(meta["shape"]), meta


def _family_atoms(family: dict):
    if family["nu"] != "laplacian-nn" or family["pi"] != "deriv-backward":
        raise ValueError("checks know the laplacian-nn / deriv-backward presets only")
    mu = family["mu"]
    if isinstance(mu, str):
        mu_atoms = PRODUCT_ATOMS[mu]
    else:
        mu_atoms = {(int(a), int(b)): float(w) for a, b, w in mu["atoms"]}
    return LAPLACIAN_NN, DERIV_BACKWARD, mu_atoms


class Spectra:
    """Fourier data of a family at level N, computed from the atoms."""

    def __init__(self, family: dict, N: int):
        self.nu, self.pi, self.mu = _family_atoms(family)
        self.M = 2**N
        self.eps = 2.0**-N
        self.k = np.rint(np.fft.fftfreq(self.M) * self.M)
        kappa = self.eps * self.k
        nu_hat = sum(w * np.cos(2 * np.pi * kappa * j) for j, w in self.nu.items())
        self.nu_bar = sum(abs(w) for w in self.nu.values())
        self.m = 1.0 + nu_hat / (2.0 * self.nu_bar)
        self.pi_hat = sum(w * np.exp(-2j * np.pi * kappa * j) for j, w in self.pi.items())
        self.mu_diag = sum(w * np.exp(-2j * np.pi * (-kappa * a + kappa * b)) for (a, b), w in self.mu.items()).real

    def c2_lattice(self) -> float:
        nz = self.k != 0
        return float(np.sum(np.abs(self.pi_hat[nz]) ** 2 * self.mu_diag[nz] / (1.0 - self.m[nz] ** 2)))

    def covariance(self, lag: int, n_steps: int) -> float:
        """Cov(T1(t, x), T1(t, x + lag eps)) at t = n_steps eps^2, zero start."""
        nz = self.k != 0
        m2 = self.m[nz] ** 2
        growth = (1.0 - m2**n_steps) / (1.0 - m2)
        return float(np.sum(np.abs(self.pi_hat[nz]) ** 2 * growth * np.cos(2 * np.pi * self.k[nz] * lag / self.M)))

    def laplacian(self, u):
        return sum(w * np.roll(u, -j, axis=-1) for j, w in self.nu.items()) / (2.0 * self.nu_bar * self.eps**2)

    def derivative(self, u):
        return sum(w * np.roll(u, -j, axis=-1) for j, w in self.pi.items()) / self.eps

    def product(self, f, g):
        return sum(w * np.roll(f, -a, axis=-1) * np.roll(g, -b, axis=-1) for (a, b), w in self.mu.items())


def philox_normals(seed: int, stream: int, shape) -> np.ndarray:
    """The program's documented stream: Philox keyed by SeedSequence((seed, stream))."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), int(stream)))))
    return gen.standard_normal(shape)


def block_mean_mismatch(fine: np.ndarray, coarse: np.ndarray) -> bool:
    """True unless coarse is the 4 (time) x 2 (space) block mean of fine."""
    nt, M = fine.shape
    if coarse.shape != (nt // 4, M // 2):
        return True
    own = fine.reshape(nt // 4, 4, M // 2, 2).mean(axis=(1, 3))
    scale = max(1.0, float(np.max(np.abs(fine))))
    return not bool(np.max(np.abs(own - coarse)) <= 1e-13 * scale)


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# sub-checks, one function each: (outdir, cfg) -> problems


def check_manifest(outdir, cfg):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    problems = []
    listed = {entry["name"] for entry in manifest["files"]}
    present = set(os.listdir(outdir)) - {"manifest.json"}
    if listed != present:
        problems.append(f"manifest lists {sorted(listed)} but directory holds {sorted(present)}")
    for entry in manifest["files"]:
        path = os.path.join(outdir, entry["name"])
        if not os.path.exists(path):
            continue
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        if h.hexdigest() != entry["sha256"]:
            problems.append(f"{entry['name']}: sha256 differs from the manifest")
        if os.path.getsize(path) != entry["bytes"]:
            problems.append(f"{entry['name']}: byte count differs from the manifest")
    return problems


def check_convergence_table(outdir, cfg):
    norms = read_csv(os.path.join(outdir, "comparison_norms.csv"))
    medians = read_csv(os.path.join(outdir, "medians.csv"))
    problems = []
    by_pair: dict[str, list[float]] = {}
    for row in norms:
        v = float(row["comparison_norm"])
        if not (math.isfinite(v) and v > 0.0):
            problems.append(f"replica {row['replica']} {row['levels']}: norm {v} not finite and positive")
        by_pair.setdefault(row["levels"], []).append(v)
    levels = sorted(cfg["N_range"])
    want = [f"{a}->{b}" for a, b in zip(levels[:-1], levels[1:])]
    if [row["levels"] for row in medians] != want:
        problems.append(f"medians.csv pairs {[row['levels'] for row in medians]} != {want}")
        return problems
    for row in medians:
        vals = by_pair.get(row["levels"], [])
        if not vals:
            problems.append(f"{row['levels']}: no replica used")
            continue
        own = statistics.median(vals)
        if not _rel_gap(float(row["median_comparison_norm"]), own) <= 1e-12:
            problems.append(f"{row['levels']}: median {row['median_comparison_norm']} != recomputed {own!r}")
        if int(row["replicas_used"]) != len(vals):
            problems.append(f"{row['levels']}: replicas_used {row['replicas_used']} != {len(vals)} rows")
    return problems


def check_linear_decrease(outdir, cfg):
    meds = [float(row["median_comparison_norm"]) for row in read_csv(os.path.join(outdir, "medians.csv"))]
    if all(b < a for a, b in zip(meds[:-1], meds[1:])):
        return []
    return [f"linear-baseline medians {meds} do not strictly decrease"]


def check_regularity_exponents(outdir, cfg):
    rows = {row["target"]: row for row in read_csv(os.path.join(outdir, "exponents.csv"))}
    problems = []
    if set(rows) != set(PAPER_EXPONENTS):
        return [f"targets {sorted(rows)} != {sorted(PAPER_EXPONENTS)}"]
    for label, want in PAPER_EXPONENTS.items():
        row = rows[label]
        got = float(row["exponent_mean"])
        tol = exponent_tolerance(label, int(cfg["replicas"]))
        if int(row["replicas"]) != cfg["replicas"]:
            problems.append(f"{label}: {row['replicas']} replicas, config asked {cfg['replicas']}")
        if not abs(got - want) <= tol:
            problems.append(f"{label}: exponent {got:+.3f}, paper {want:+.1f}, tolerance {tol:.3f}")
    return problems


def _simulate_inputs(outdir, cfg):
    values, meta = read_field(outdir, "trajectory")
    with open(os.path.join(outdir, "run.json")) as fh:
        run = json.load(fh)
    return values, meta, run


def check_simulate_replay(outdir, cfg):
    values, meta, run = _simulate_inputs(outdir, cfg)
    sp = Spectra(cfg["family"], cfg["N"])
    dt = sp.eps**2
    n_steps = int(round(cfg["T"] / dt))
    stride = max(1, n_steps // 64)
    problems = []
    if cfg.get("initial", {}).get("kind") != "white-noise":
        return ["replay supports the white-noise initial condition only"]
    u = philox_normals(cfg["seed"], 1, sp.M) * sp.eps**-0.5
    if not np.array_equal(u, values[0]):
        problems.append("slice 0 is not the white-noise draw of stream (seed, 1)")
    times = meta["times"]
    steps = stride if len(times) > 1 else int(round(run["blowup_time"] / dt))
    xi = philox_normals(cfg["seed"], 0, (steps, sp.M)) * sp.eps**-1.5
    b = float(run["b_drift"])
    for n in range(steps):
        u = u + dt * (sp.laplacian(u) + sp.derivative(sp.product(u, u) + b * u + xi[n]))
    if len(times) > 1:
        if not abs(times[1] - steps * dt) <= 1e-12:
            problems.append(f"first record at t={times[1]}, expected {steps * dt}")
        err = float(np.max(np.abs(u - values[1])) / np.max(np.abs(values[1])))
        if not err <= 1e-9:
            problems.append(f"replayed first interval differs by {err:.2e} relative")
    elif not np.max(np.abs(u)) > 1e8:
        problems.append("run.json reports a blow-up the replay does not reproduce")
    return problems


def check_simulate_mean(outdir, cfg):
    values, meta, run = _simulate_inputs(outdir, cfg)
    means = values.mean(axis=1)
    drift = float(np.max(np.abs(means - means[0])))
    scale = max(1.0, float(np.max(np.abs(values))))
    if drift <= 1e-10 * scale:
        return []
    return [f"spatial mean drifts by {drift:.3e} across slices (scale {scale:.3e})"]


def _processes_t1(cfg) -> np.ndarray:
    sp = Spectra(cfg["family"], cfg["N"])
    nt = int(round(cfg["T"] / sp.eps**2))
    xi_hat = np.fft.fft(philox_normals(cfg["seed"], 0, (nt, sp.M)) * sp.eps**-1.5, axis=1)
    pref = sp.eps**2 * sp.pi_hat.conj() / sp.eps  # pi_hat(-eps k) / eps, real atoms
    out = np.zeros((nt + 1, sp.M), dtype=np.complex128)
    for n in range(1, nt + 1):
        out[n] = sp.m * out[n - 1] + pref * xi_hat[n - 1]
    return np.fft.ifft(out, axis=1).real


def check_processes_t1(outdir, cfg):
    t1, _ = read_field(outdir, "tree_T1")
    own = _processes_t1(cfg)
    err = float(np.max(np.abs(t1 - own)) / np.max(np.abs(own)))
    return [] if err <= 1e-9 else [f"T1 of replica 0 differs from the replayed recurrence by {err:.2e} relative"]


def check_processes_t2(outdir, cfg):
    t1, _ = read_field(outdir, "tree_T1")
    t2, _ = read_field(outdir, "tree_T2")
    sp = Spectra(cfg["family"], cfg["N"])
    c2 = sp.c2_lattice()
    err = float(np.max(np.abs(t2 - (sp.product(t1, t1) - c2))))
    return [] if err <= 1e-9 * c2 else [f"T2 != B(T1, T1) - c2 (c2 = {c2:.6g}) by {err:.3e}"]


def t2_moments(cfg) -> tuple[float, float]:
    """E and sd of T2(T, 0) = B(T1, T1)(0) - c2 for Gaussian T1 started at zero."""
    sp = Spectra(cfg["family"], cfg["N"])
    nt = int(round(cfg["T"] / sp.eps**2))
    offsets = sorted({j for pair in sp.mu for j in pair})
    cov = np.array([[sp.covariance(a - b, nt) for b in offsets] for a in offsets])
    form = np.zeros_like(cov)
    for (a, b), w in sp.mu.items():
        form[offsets.index(a), offsets.index(b)] += 0.5 * w
        form[offsets.index(b), offsets.index(a)] += 0.5 * w
    expected = float(np.sum(form * cov)) - sp.c2_lattice()
    return expected, math.sqrt(2.0 * float(np.trace(form @ cov @ form @ cov)))


def check_processes_mean(outdir, cfg):
    row = {r["label"]: r for r in read_csv(os.path.join(outdir, "mc_summary.csv"))}["T2"]
    expected, sd = t2_moments(cfg)
    stderr = sd / math.sqrt(int(row["replicas"]))
    mean = float(row["mean"])
    if abs(mean - expected) <= T2_MEAN_SIGMAS * stderr:
        return []
    return [f"mean T2 {mean:.3f} vs E[T2] {expected:.3f}: more than {T2_MEAN_SIGMAS:g} x {stderr:.3f} apart"]


def _constants_rows(outdir):
    rows = read_csv(os.path.join(outdir, "constants.csv"))
    return [{k: (v if k == "family" else float(v)) for k, v in row.items()} for row in rows]


def check_constants_routes(outdir, cfg):
    rows = _constants_rows(outdir)
    problems = []
    gaps = [_rel_gap(r["c2_quadrature"], r["c2_lattice"]) for r in rows]
    if not max(gaps) <= 0.05:
        problems.append(f"c2 routes differ by up to {max(gaps):.2%}")
    if not all(b < a for a, b in zip(gaps[:-1], gaps[1:])):
        problems.append(f"c2 route gap does not shrink with N: {gaps}")
    c21_gap = _rel_gap(rows[-1]["c21_modesum"], rows[-1]["c21_quadrature"])
    if not c21_gap <= 0.01:
        problems.append(f"c21 routes differ by {c21_gap:.2%} at N={rows[-1]['N']:g}")
    return problems


def check_constants_scaling(outdir, cfg):
    rows = _constants_rows(outdir)
    ratios = [b["c2_lattice"] / a["c2_lattice"] for a, b in zip(rows[:-1], rows[1:])]
    if all(1.8 <= r <= 2.2 for r in ratios):
        return []
    return [f"c2 per-level ratios {ratios} leave [1.8, 2.2]"]


def check_constants_lattice(outdir, cfg):
    problems = []
    for r in _constants_rows(outdir):
        own = Spectra(cfg["family"], int(r["N"])).c2_lattice()
        if not _rel_gap(r["c2_lattice"], own) <= 1e-9:
            problems.append(f"N={r['N']:g}: c2_lattice {r['c2_lattice']!r} != own mode sum {own!r}")
    return problems


def _heat_inputs(outdir, cfg):
    cols, _ = read_field(outdir, "kernel")
    table = {row["quantity"]: float(row["value"]) for row in read_csv(os.path.join(outdir, "heat_kernel.csv"))}
    return cols, table, Spectra(cfg["family"], cfg["N"])


def check_heat_certificates(outdir, cfg):
    cols, table, sp = _heat_inputs(outdir, cfg)
    n = cols.shape[0] - 1
    mass = float(np.max(np.abs(sp.eps * cols.sum(axis=1) - 1.0)))
    half = n // 2
    conv = sp.eps * np.fft.ifft(np.fft.fft(cols[half]) * np.fft.fft(cols[n - half])).real
    semi = float(np.max(np.abs(conv - cols[n])))
    problems = []
    for name, own, limit in (("mass", mass, 1e-12), ("semigroup", semi, 1e-10)):
        reported = table["mass_max_error" if name == "mass" else "semigroup_residual"]
        if not (own <= limit and reported <= limit):
            problems.append(f"{name} error {own:.2e} (reported {reported:.2e}) exceeds {limit:g}")
    return problems


def check_heat_multiplier(outdir, cfg):
    _, table, sp = _heat_inputs(outdir, cfg)
    problems = []
    if not (sp.m.min() >= 0.5 - 1e-12 and sp.m.max() <= 1.0 + 1e-12):
        problems.append(f"multiplier range [{sp.m.min()}, {sp.m.max()}] leaves [1/2, 1]")
    for key, own in (("multiplier_min", sp.m.min()), ("multiplier_max", sp.m.max())):
        if not abs(table[key] - own) <= 1e-12:
            problems.append(f"{key} {table[key]!r} != own {own!r}")
    return problems


def check_heat_columns(outdir, cfg):
    cols, _, sp = _heat_inputs(outdir, cfg)
    n = cols.shape[0] - 1
    problems = []
    for row in sorted({1, n // 2, n}):
        own = np.fft.ifft(sp.m**row).real / sp.eps
        err = float(np.max(np.abs(cols[row] - own)) / np.max(np.abs(own)))
        if not err <= 1e-9:
            problems.append(f"kernel row {row} differs from ifft(m^n)/eps by {err:.2e} relative")
    return problems


def _kernel_rows(outdir):
    return read_csv(os.path.join(outdir, "kernel_diagnostics.csv"))


def check_kernel_identity(outdir, cfg):
    quantity = "renormalized_convolution_identity_residual"
    res = {int(r["N"]): float(r["value"]) for r in _kernel_rows(outdir) if r["quantity"] == quantity}
    bad = {n: v for n, v in res.items() if not v <= 1e-12}
    problems = [f"identity residual {v:.2e} at N={n}" for n, v in bad.items()]
    if sorted(res) != sorted(cfg["N_range"]):
        problems.append(f"residual rows for N={sorted(res)}")
    return problems


def check_kernel_order(outdir, cfg):
    vals = [float(r["value"]) for r in _kernel_rows(outdir) if r["quantity"] == "order_norm_K_zeta_-1_m2"]
    if len(vals) == len(cfg["N_range"]) and all(v > 0 for v in vals) and max(vals) / min(vals) <= 2.0:
        return []
    return [f"order norms {vals}: max/min above 2"]


CHECKS = {
    "convergence": [("manifest", check_manifest), ("convergence-table", check_convergence_table)],
    "regularity": [("manifest", check_manifest), ("regularity-exponents", check_regularity_exponents)],
    "simulate": [
        ("manifest", check_manifest),
        ("simulate-replay", check_simulate_replay),
        ("simulate-mean", check_simulate_mean),
    ],
    "processes": [
        ("manifest", check_manifest),
        ("processes-t1", check_processes_t1),
        ("processes-t2", check_processes_t2),
        ("processes-mean", check_processes_mean),
    ],
    "constants": [
        ("manifest", check_manifest),
        ("constants-routes", check_constants_routes),
        ("constants-scaling", check_constants_scaling),
        ("constants-lattice", check_constants_lattice),
    ],
    "heat-kernel": [
        ("manifest", check_manifest),
        ("heat-certificates", check_heat_certificates),
        ("heat-multiplier", check_heat_multiplier),
        ("heat-columns", check_heat_columns),
    ],
    "kernel-diagnostics": [
        ("manifest", check_manifest),
        ("kernel-identity", check_kernel_identity),
        ("kernel-order", check_kernel_order),
    ],
}


def checks_for(label: str, kind: str):
    extra = [("linear-decrease", check_linear_decrease)] if label == "convergence-linear" else []
    return CHECKS[kind] + extra


def _apply(name, fn, outdir, cfg) -> list[str]:
    try:
        return [f"{name}: {p}" for p in fn(outdir, cfg)]
    except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"{name}: could not check ({type(exc).__name__}: {exc})"]


def run_checks(label: str, kind: str, outdir: str, cfg: dict) -> list[str]:
    return [p for name, fn in checks_for(label, kind) for p in _apply(name, fn, outdir, cfg)]


# ---------------------------------------------------------------------------
# self-test: damage one file, expect the matching sub-check to fail


def _flip_byte(path, cfg):
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        b = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([b[0] ^ 0x01]))


def _edit_csv(key_col, key, col, fn):
    def mutate(path, cfg):
        rows = read_csv(path)
        for row in rows:
            if key is None or row[key_col] == key:
                row[col] = repr(fn(float(row[col]), cfg))
                break
        write_csv(path, rows)

    return mutate


def _swap_medians(path, cfg):
    rows = read_csv(path)
    rows[0]["median_comparison_norm"], rows[1]["median_comparison_norm"] = (
        rows[1]["median_comparison_norm"],
        rows[0]["median_comparison_norm"],
    )
    write_csv(path, rows)


def _edit_field(fn):
    def mutate(path, cfg):
        values = np.fromfile(path, dtype="<f8")
        fn(values, cfg)
        values.tofile(path)

    return mutate


def _trajectory_point(values, cfg):
    M = 2 ** cfg["N"]
    values[M + 3] *= 1.0 + 1e-6  # slice 1, one site


def _trajectory_shift(values, cfg):
    M = 2 ** cfg["N"]
    values[-M:] += 1e-6 * np.max(np.abs(values))


def _drop_renormalization(values, cfg):
    values += Spectra(cfg["family"], cfg["N"]).c2_lattice()


def _perturb_one(rel):
    def fn(values, cfg):
        i = len(values) // 2 + 5
        values[i] = values[i] * (1.0 + rel) + rel * np.max(np.abs(values))

    return fn


def _last_row(values, cfg):
    M = 2 ** cfg["N"]
    values[-M // 2] += 1e-6 * np.max(np.abs(values))


def _scale_all(factor):
    def fn(values, cfg):
        values *= factor

    return fn


def _shift_t2_mean(value, cfg):
    return value + 2.0 * T2_MEAN_SIGMAS * t2_moments(cfg)[1] / math.sqrt(cfg["replicas"])


def _first_data_file(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)["files"][0]["name"]


# (kind, sub-check, file to damage, damage, what the damage models)
CORRUPTIONS = [
    ("*", "manifest", None, _flip_byte, "one flipped byte in a data file"),
    (
        "convergence",
        "convergence-table",
        "medians.csv",
        _edit_csv("levels", None, "median_comparison_norm", lambda v, c: v * 1.01),
        "a median off by 1%",
    ),
    (
        "convergence",
        "convergence-table",
        "comparison_norms.csv",
        _edit_csv("replica", None, "comparison_norm", lambda v, c: float("nan")),
        "a non-finite norm",
    ),
    ("convergence-linear", "linear-decrease", "medians.csv", _swap_medians, "medians in the wrong order"),
    (
        "regularity",
        "regularity-exponents",
        "exponents.csv",
        _edit_csv("target", "T1", "exponent_mean", lambda v, c: v + 2.0 * exponent_tolerance("T1", c["replicas"])),
        "T1 exponent shifted by twice its tolerance",
    ),
    (
        "simulate",
        "simulate-replay",
        "trajectory.bin",
        _edit_field(_trajectory_point),
        "one site of slice 1 off by 1e-6 relative",
    ),
    ("simulate", "simulate-mean", "trajectory.bin", _edit_field(_trajectory_shift), "last slice shifted by a constant"),
    ("processes", "processes-t1", "tree_T1.bin", _edit_field(_perturb_one(1e-6)), "one T1 value off by 1e-6"),
    ("processes", "processes-t2", "tree_T2.bin", _edit_field(_drop_renormalization), "T2 without the c2 subtraction"),
    (
        "processes",
        "processes-mean",
        "mc_summary.csv",
        _edit_csv("label", "T2", "mean", _shift_t2_mean),
        "mean T2 off by twice the bound",
    ),
    (
        "constants",
        "constants-routes",
        "constants.csv",
        _edit_csv("N", "10", "c21_modesum", lambda v, c: v * 1.02),
        "c21 mode sum off by 2% at N=10",
    ),
    (
        "constants",
        "constants-scaling",
        "constants.csv",
        _edit_csv("N", "7", "c2_lattice", lambda v, c: v * 1.25),
        "c2 at N=7 off by 25%",
    ),
    (
        "constants",
        "constants-lattice",
        "constants.csv",
        _edit_csv("N", "8", "c2_lattice", lambda v, c: v * (1 + 1e-6)),
        "c2 at N=8 off by 1e-6",
    ),
    (
        "heat-kernel",
        "heat-certificates",
        "kernel.bin",
        _edit_field(_scale_all(1.0 + 1e-9)),
        "kernel scaled by 1 + 1e-9",
    ),
    (
        "heat-kernel",
        "heat-multiplier",
        "heat_kernel.csv",
        _edit_csv("quantity", "multiplier_min", "value", lambda v, c: 0.49),
        "multiplier minimum 0.49",
    ),
    (
        "heat-kernel",
        "heat-columns",
        "kernel.bin",
        _edit_field(_last_row),
        "one value of the last kernel row off by 1e-6",
    ),
    (
        "kernel-diagnostics",
        "kernel-identity",
        "kernel_diagnostics.csv",
        _edit_csv("quantity", "renormalized_convolution_identity_residual", "value", lambda v, c: 1e-9),
        "identity residual 1e-9",
    ),
    (
        "kernel-diagnostics",
        "kernel-order",
        "kernel_diagnostics.csv",
        _edit_csv("quantity", "order_norm_K_zeta_-1_m2", "value", lambda v, c: v * 3.0),
        "order norm at N=5 tripled",
    ),
]


def self_test(experiments) -> list[dict]:
    """Damage each checked output once; returns one record per damage.

    ``experiments`` yields (label, kind, outdir, cfg) of outputs that passed
    their checks. Each record says whether the sub-check caught the damage
    and whether the restored file passes again.
    """
    records = []
    for label, kind, outdir, cfg in experiments:
        subchecks = dict(checks_for(label, kind))
        for target, name, fname, mutate, what in CORRUPTIONS:
            if name not in subchecks or target not in ("*", kind, label):
                continue
            path = os.path.join(outdir, fname or _first_data_file(outdir))
            with open(path, "rb") as fh:
                original = fh.read()
            try:
                mutate(path, cfg)
                caught = bool(_apply(name, subchecks[name], outdir, cfg))
            finally:
                with open(path, "wb") as fh:
                    fh.write(original)
            restored = not _apply(name, subchecks[name], outdir, cfg)
            records.append({"experiment": label, "check": name, "damage": what, "caught": caught, "restored": restored})
    return records
