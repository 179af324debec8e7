"""Configuration-driven command line front end.

One subcommand per experiment kind; a JSON config names the discretization
family (presets or inline atoms), grid level(s), horizon, seed, replica
count and drift mode. Every run lands in a fresh timestamped directory
containing a manifest (config echo, library version, wall time, checksums)
plus CSV/binary artifacts; identical (config, seed) pairs reproduce the
data files byte for byte.

Exit codes: 0 ok, 1 validation failure, 2 config or runtime error, 3
blow-up truncated (simulate only).
"""

from __future__ import annotations

import argparse
import json
import os
import math
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .fieldio import sha256_file, write_csv, write_field, write_json
from .grids import GridSpec, LatticeField, NoiseField, sample_noise
from .heat import HeatKernel
from .kernels import order_norm, renormalized_square_check, square_check_bytes
from .measures import AtomicMeasure1D, AtomicMeasure2D, preset_measure, validate_mu, validate_nu, validate_pi
from .norms import PROFILE_SMOOTHNESS, _usable_scales, estimate_exponent, make_test_family
from .operators import OperatorFamily
from .processes import TREE_LABELS, lift
from .renorm import c2_lattice_sum, c2_quadrature, c21, compute_constants
from .solver import (
    SchemeConfig,
    coupled_convergence_study,
    drift_coefficient,
    ic_constant,
    ic_white_noise,
    ic_zero,
    run,
)

N_GUARD = 10
DRIFT_MODES = ("none", "renormalized")
INITIAL_KINDS = ("zero", "constant", "white-noise")
SINGLE_LEVEL_KINDS = ("heat-kernel", "simulate", "processes", "regularity")


class SchemaError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    kind: str
    family: dict
    N: int | None = None
    N_range: list | None = None
    T: float = 0.25
    seed: int = 0
    replicas: int = 1
    drift: object = "none"
    initial: dict = field(default_factory=lambda: {"kind": "zero"})
    alpha: float = -0.6
    eta: float = -0.6
    out: str = "sbe-out"

    def levels(self) -> list[int]:
        return list(self.N_range) if self.N_range else [self.N]

    def echo(self) -> dict:
        echoed = asdict(self)
        del echoed["out"]
        return echoed


def _measure_from(entry, kind: str):
    """The measure of family.<kind>: a preset name or an atoms object; a malformed one is a SchemaError naming it."""
    if isinstance(entry, str):
        try:
            return preset_measure(entry)
        except KeyError as exc:
            raise SchemaError(f"family.{kind}: {exc.args[0]}") from exc
    if isinstance(entry, dict) and "atoms" in entry:
        try:
            return (AtomicMeasure2D if kind == "mu" else AtomicMeasure1D).from_json(entry)
        except (TypeError, ValueError, OverflowError) as exc:
            shape = "[j1, j2, weight]" if kind == "mu" else "[j, weight]"
            raise SchemaError(f"family.{kind}: malformed atoms, each {shape} with a finite weight ({exc})") from exc
    raise SchemaError(f"family.{kind}: expected a preset name or an atoms object")


def measures_from_config(family: dict):
    """Parse the three measures structurally, without admissibility checks."""
    if not isinstance(family, dict):
        raise SchemaError("family: expected an object with nu/pi/mu")
    for key in ("nu", "pi", "mu"):
        if key not in family:
            raise SchemaError(f"family.{key}: missing")
    return (
        _measure_from(family["nu"], "nu"),
        _measure_from(family["pi"], "pi"),
        _measure_from(family["mu"], "mu"),
    )


def family_from_config(family: dict) -> OperatorFamily:
    nu, pi, mu = measures_from_config(family)
    return OperatorFamily(nu=nu, pi=pi, mu=mu)


def _load_json(path: str):
    """The parsed config file; an unreadable or malformed file is a config error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"config: cannot read {path}: {exc}") from exc


def parse_config(path: str, kind: str | None = None) -> ExperimentConfig:
    return config_from_dict(_load_json(path), kind=kind)


def _coerced(key: str, value, to):
    """value as ``to``, never from a boolean; an integer takes integral numbers and strings ("77")."""
    expected = f"{key}: expected {'an integer' if to is int else 'a number'}, got {value!r}"
    fraction = isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or (to is int and fraction):
        raise SchemaError(expected)
    try:
        return to(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(expected) from exc


def config_from_dict(raw: dict, kind: str | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise SchemaError(f"config: expected a JSON object, got {type(raw).__name__}")
    if "family" not in raw:
        raise SchemaError("family: missing")
    cfg_kind = raw.get("kind", kind)
    if cfg_kind is None:
        raise SchemaError("kind: missing (set it in the config or pick a subcommand)")
    if cfg_kind not in EXPERIMENT_KINDS:
        raise SchemaError(f"kind: {cfg_kind!r} is not one of {', '.join(EXPERIMENT_KINDS)}")
    N, N_range = raw.get("N"), raw.get("N_range")
    if N_range is not None and not isinstance(N_range, (list, tuple)):
        raise SchemaError(f"N_range: expected a list of levels, got {N_range!r}")
    cfg = ExperimentConfig(
        kind=cfg_kind,
        family=raw["family"],
        N=None if N is None else _coerced("N", N, int),
        N_range=None if N_range is None else [_coerced("N_range", n, int) for n in N_range],
        T=_coerced("T", raw.get("T", 0.25), float),
        seed=_coerced("seed", raw.get("seed", 0), int),
        replicas=_coerced("replicas", raw.get("replicas", 1), int),
        drift=raw.get("drift", "none"),
        initial=raw.get("initial", {"kind": "zero"}),
        alpha=_coerced("alpha", raw.get("alpha", -0.6), float),
        eta=_coerced("eta", raw.get("eta", -0.6), float),
        out=raw.get("out", "sbe-out"),
    )
    if not isinstance(cfg.initial, dict):
        raise SchemaError(f"initial: expected an object with a kind, got {cfg.initial!r}")
    if cfg.N is None and not cfg.N_range:
        raise SchemaError("N: missing (give N or N_range)")
    if cfg.N is None and cfg.kind in SINGLE_LEVEL_KINDS:
        raise SchemaError(f"N: missing ({cfg.kind} runs at one level N; N_range is not read)")
    given = ([cfg.N] if cfg.N is not None else []) + list(cfg.N_range or [])
    for n in given:
        if not 1 <= n <= N_GUARD:
            raise SchemaError(f"N: level {n} outside 1..{N_GUARD} (desk-scale guard)")
    if not (math.isfinite(cfg.T) and cfg.T > 0):
        raise SchemaError(f"T: expected a finite horizon > 0, got {cfg.T!r}")
    for n in given:
        steps = cfg.T * 4**n
        if abs(steps - round(steps)) > 1e-9:
            raise SchemaError(f"T: {cfg.T!r} is not a whole number of time steps 4^-{n} at level {n}")
    if cfg.kind == "regularity":
        try:
            _regularity_families(GridSpec(cfg.N, cfg.T))
        except ValueError as exc:
            raise SchemaError(f"N={cfg.N}, T={cfg.T!r}: too few test-function scales to fit ({exc})") from exc
    if cfg.kind == "convergence":
        levels = sorted(cfg.levels())
        if len(levels) < 3 or levels != list(range(levels[0], levels[0] + len(levels))):
            raise SchemaError(f"N_range: convergence needs three or more distinct consecutive levels, got {levels}")
    if cfg.kind == "kernel-diagnostics":
        _check_kernel_memory(cfg)
    if cfg.replicas < 1:
        raise SchemaError("replicas: must be >= 1")
    if cfg.seed < 0:
        raise SchemaError(f"seed: expected a non-negative integer, got {cfg.seed}")
    if not abs(cfg.alpha) < PROFILE_SMOOTHNESS:  # also refuses NaN
        raise SchemaError(f"alpha: expected a finite number with |alpha| < {PROFILE_SMOOTHNESS}, got {cfg.alpha!r}")
    if not math.isfinite(cfg.eta):
        raise SchemaError(f"eta: expected a finite number, got {cfg.eta!r}")
    number = isinstance(cfg.drift, (int, float)) and not isinstance(cfg.drift, bool)
    if not (number and math.isfinite(cfg.drift) or cfg.drift in DRIFT_MODES):
        raise SchemaError(f"drift: expected 'none', 'renormalized' or a finite number, got {cfg.drift!r}")
    if cfg.initial.get("kind", "zero") not in INITIAL_KINDS:
        raise SchemaError(f"initial.kind: expected one of {', '.join(INITIAL_KINDS)}, got {cfg.initial.get('kind')!r}")
    if cfg.initial.get("kind") == "constant":
        value = cfg.initial.get("value", 0.0)
        try:
            finite = not isinstance(value, bool) and math.isfinite(float(value))  # what _initial_slice reads
        except (TypeError, ValueError, OverflowError):
            finite = False
        if not finite:
            raise SchemaError(f"initial.value: expected a finite number, got {value!r}")
    measures_from_config(cfg.family)  # fail fast on malformed atoms
    return cfg


def _memory_available() -> int | None:
    """MemAvailable of /proc/meminfo in bytes, read only; None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _diag_grid(cfg: ExperimentConfig, n: int) -> GridSpec:
    """A kernel-diagnostics level: the split kernel's horizon is at most 1/4."""
    return GridSpec(n, min(cfg.T, 0.25))


def _check_kernel_memory(cfg: ExperimentConfig) -> None:
    """Refuse kernel-diagnostics levels whose largest check needs more than the memory available."""
    n = max(cfg.levels())
    need, budget = square_check_bytes(_diag_grid(cfg, n)), _memory_available()
    if budget is not None and need > budget:
        name = "N_range" if cfg.N_range else "N"
        raise SchemaError(
            f"{name}: level {n} needs about {need / 1e9:.2f} GB for the kernel diagnostics, "
            f"more than the {budget / 1e9:.2f} GB available (MemAvailable)"
        )


def _drift_value(cfg: ExperimentConfig, fam: OperatorFamily) -> float:
    if cfg.drift in DRIFT_MODES:
        return drift_coefficient(fam, cfg.drift)
    return float(cfg.drift)


def _initial_slice(cfg: ExperimentConfig, grid: GridSpec) -> np.ndarray:
    kind = cfg.initial.get("kind", "zero")
    if kind == "zero":
        return ic_zero(grid)
    if kind == "constant":
        return ic_constant(grid, float(cfg.initial.get("value", 0.0)))
    return ic_white_noise(grid, cfg.seed)


@dataclass
class ResultBundle:
    directory: str
    manifest: dict
    files: list
    exit_code: int = 0


def emit(bundle: ResultBundle) -> None:
    """Write the manifest for a bundle, checksumming every listed file."""
    entries = []
    for name in sorted(bundle.files):
        path = os.path.join(bundle.directory, name)
        entries.append({"name": name, "sha256": sha256_file(path), "bytes": os.path.getsize(path)})
    bundle.manifest["files"] = entries
    write_json(bundle.directory, "manifest.json", bundle.manifest)


# ---------------------------------------------------------------------------
# experiment bodies; each returns (files, extra manifest entries, exit code)


def _exp_validate(cfg, fam, outdir):
    nu, pi, mu = measures_from_config(cfg.family)
    reports = {
        "nu": validate_nu(nu),
        "pi": validate_pi(pi),
        "mu": validate_mu(mu),
    }
    ok = all(r.ok for r in reports.values())
    payload = {
        name: {
            "ok": r.ok,
            "violations": [{"check": v.check, "measured": v.measured, "detail": v.detail} for v in r.violations],
            "info": r.info,
        }
        for name, r in reports.items()
    }
    hk_note = {}
    if ok and cfg.N is not None:
        hk = HeatKernel(GridSpec(cfg.N, cfg.T), OperatorFamily(nu, pi, mu))
        hk_note = {
            "min_multiplier": float(hk.multiplier.min()),
            "marginally_oscillatory": hk.marginally_oscillatory,
        }
    files = [write_json(outdir, "validation.json", {"ok": ok, "reports": payload, "scheme": hk_note})]
    return files, {"ok": ok}, 0 if ok else 1


def _exp_constants(cfg, fam, outdir):
    rows = []
    label = json.dumps(cfg.family, sort_keys=True)
    for n in cfg.levels():
        grid = GridSpec(n, cfg.T)
        rows.append(
            (
                n,
                label,
                c2_quadrature(fam, grid),
                c2_lattice_sum(fam, grid),
                c21(fam, "quadrature"),
                c21(fam, "mode_sum", grid),
            )
        )
    write_csv(
        os.path.join(outdir, "constants.csv"),
        ["N", "family", "c2_quadrature", "c2_lattice", "c21_quadrature", "c21_modesum"],
        rows,
    )
    return ["constants.csv"], {}, 0


def _exp_heat_kernel(cfg, fam, outdir):
    grid = GridSpec(cfg.N, cfg.T)
    hk = HeatKernel(grid, fam)
    cols = hk.columns(grid.n_steps)
    mass = grid.eps * cols.sum(axis=1)
    n_half = grid.n_steps // 2
    semi = 0.0
    if n_half >= 1:
        conv = grid.eps * np.fft.ifft(np.fft.fft(cols[n_half]) * np.fft.fft(cols[grid.n_steps - n_half])).real
        semi = float(np.max(np.abs(conv - cols[grid.n_steps])))
    rows = [
        ("mass_max_error", float(np.max(np.abs(mass - 1.0)))),
        ("semigroup_residual", semi),
        ("multiplier_min", float(hk.multiplier.min())),
        ("multiplier_max", float(hk.multiplier.max())),
    ]
    for j in (0, 1, 2):
        rows.append((f"decay_bound_sup_j{j}", hk.verify_bounds(j, cfg.T).sup))
    write_csv(os.path.join(outdir, "heat_kernel.csv"), ["quantity", "value"], rows)
    files = ["heat_kernel.csv"]
    files += write_field(outdir, "kernel", cols, {"N": grid.N, "T": grid.T, "seed": None})
    return files, {}, 0


def _exp_simulate(cfg, fam, outdir):
    grid = GridSpec(cfg.N, cfg.T)
    b = _drift_value(cfg, fam)
    scheme = SchemeConfig(fam=fam, grid=grid, b_drift=b, record_stride=max(1, grid.n_steps // 64))
    # streamed: run draws the noise a block of rows at a time
    traj = run(scheme, _initial_slice(cfg, grid), NoiseField(grid, cfg.seed), cfg.T)
    files = write_field(
        outdir,
        "trajectory",
        traj.values(),
        {"N": grid.N, "T": grid.T, "seed": cfg.seed, "times": traj.times.tolist()},
    )
    run_manifest = {
        "family": cfg.family,
        "N": grid.N,
        "T": grid.T,
        "seed": cfg.seed,
        "b_drift": b,
        "blowup": traj.blowup,
    }
    if traj.blowup:
        run_manifest["blowup_time"] = traj.blowup_time
    files.append(write_json(outdir, "run.json", run_manifest))
    return files, {"blowup": traj.blowup}, 3 if traj.blowup else 0


def _exp_processes(cfg, fam, outdir):
    grid = GridSpec(cfg.N, cfg.T)
    consts = compute_constants(fam, grid)
    files: list[str] = []
    finals = {lab: [] for lab in TREE_LABELS}
    for rep in range(cfg.replicas):
        noise = sample_noise(grid, cfg.seed + rep)
        # replica 0 is written in full, the later ones enter only at the last
        # slice; T1, T2, T12, T22 and T122 stay full, as other trees read them
        tps = lift(noise, fam, consts, last=() if rep == 0 else ("T11", "T21", "T124", "T1222"))
        for lab in TREE_LABELS:
            finals[lab].append(float(tps[lab][-1, 0]))
        if rep == 0:
            for lab in TREE_LABELS:
                files += write_field(outdir, f"tree_{lab}", tps[lab], {"N": grid.N, "T": grid.T, "seed": cfg.seed})
        del noise, tps  # free this replica before the next one is drawn
    rows = []
    for lab in TREE_LABELS:
        vals = finals[lab]
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        rows.append((lab, cfg.T, mean, stderr, cfg.replicas))
    write_csv(os.path.join(outdir, "mc_summary.csv"), ["label", "t", "mean", "stderr", "replicas"], rows)
    files.append("mc_summary.csv")
    return files, {"c2": consts.c2, "c21": consts.c21}, 0


def _regularity_families(grid: GridSpec):
    """The space and parabolic test families of the regularity table.

    Four dyadic scales each where the level and the horizon leave room; the
    parabolic ones must fit kt in the horizon (2 lambda^2 <= T - dt). Raises
    ValueError where estimate_exponent would refuse either family.
    """
    lam_min = 4 * grid.eps
    tf_space = make_test_family(grid, lambda_min=lam_min, lambda_max=min(0.5, max(0.125, 8 * lam_min)))
    lam_p = 2.0 ** math.floor(math.log2(math.sqrt((grid.T - grid.dt) / 2.0))) if grid.n_steps > 1 else 0.0
    tf_para = make_test_family(grid, lambda_min=max(grid.eps, lam_p / 8), lambda_max=lam_p)
    _usable_scales(tf_space, grid, 1, "space")
    _usable_scales(tf_para, grid, grid.n_steps, "parabolic")
    return tf_space, tf_para


def _exp_regularity(cfg, fam, outdir):
    grid = GridSpec(cfg.N, cfg.T)
    consts = compute_constants(fam, grid)
    tf_space, tf_para = _regularity_families(grid)
    targets = {"T1": "space", "T11": "space", "T12": "space", "T2": "parabolic"}
    table: dict[str, list[float]] = {lab: [] for lab in list(targets) + ["noise"]}
    curves = []
    estimates = {}
    for rep in range(cfg.replicas):
        noise = sample_noise(grid, cfg.seed + rep)
        # the space estimates read only the last slice of T11 and T12
        tps = lift(noise, fam, consts, labels=tuple(targets), last=("T11", "T12"))
        for lab, mode in targets.items():
            est = estimate_exponent(LatticeField(grid, tps[lab]), tf_space if mode == "space" else tf_para, mode=mode)
            table[lab].append(est.exponent)
            if rep == 0:
                curves += [(lab, lam, sup) for lam, sup in zip(est.scales, est.sup_pairings)]
                estimates[lab] = _estimate_to_json(est)
        est = estimate_exponent(LatticeField(grid, noise.values), tf_para, mode="parabolic")
        table["noise"].append(est.exponent)
        if rep == 0:
            estimates["noise"] = _estimate_to_json(est)
        del noise, tps  # free this replica before the next one is drawn
    rows = []
    for lab, vals in table.items():
        mode = targets.get(lab, "parabolic")
        sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        rows.append((lab, mode, float(np.mean(vals)), sd, cfg.replicas))
    write_csv(os.path.join(outdir, "exponents.csv"), ["target", "mode", "exponent_mean", "exponent_sd", "replicas"], rows)
    write_csv(os.path.join(outdir, "pairings.csv"), ["target", "lambda", "sup_pairing"], curves)
    return ["exponents.csv", "pairings.csv", write_json(outdir, "estimates.json", estimates)], {}, 0


def _estimate_to_json(est) -> dict:
    return {
        "exponent": est.exponent,
        "intercept": est.intercept,
        "residual": est.residual,
        "mode": est.mode,
        "scales": [float(v) for v in est.scales],
        "sup_pairings": [float(v) for v in est.sup_pairings],
    }


def _exp_convergence(cfg, fam, outdir):
    """Coupled dyadic self-convergence over consecutive levels.

    Every level always starts from the replica's coupled white noise (see
    ``coupled_convergence_study``); the config's ``initial`` is ignored, and
    the manifest says so. The manifest also lists the replicas dropped for
    too few clean times and each replica's earliest escape time.
    """
    study = coupled_convergence_study(
        fam, cfg.levels(), cfg.T, cfg.replicas, cfg.seed, cfg.alpha, cfg.eta, b_drift=_drift_value(cfg, fam)
    )
    write_csv(os.path.join(outdir, "comparison_norms.csv"), ["replica", "levels", "comparison_norm"], study.rows)
    medians = [(pair, statistics.median(v) if v else float("nan"), len(v)) for pair, v in study.per_pair.items()]
    write_csv(os.path.join(outdir, "medians.csv"), ["levels", "median_comparison_norm", "replicas_used"], medians)
    med_vals = [m for _, m, _ in medians]
    decreasing = all(b < a for a, b in zip(med_vals[:-1], med_vals[1:]))
    extra = {
        "medians": med_vals,
        "decreasing": decreasing,
        "initial_condition": "white-noise (coupled across levels; config initial ignored)",
        "dropped_replicas": study.dropped,
        "escape_times": study.escape_times,
    }
    return ["comparison_norms.csv", "medians.csv"], extra, 0


def _exp_kernel_diag(cfg, fam, outdir):
    rows = []
    for n in cfg.levels():
        grid = _diag_grid(cfg, n)
        kern, ident, resid = renormalized_square_check(fam, grid)
        rows.append((n, "order_norm_K_zeta_-1_m2", order_norm(kern, -1.0, m=2)))
        rows.append((n, "renormalized_convolution_identity_residual", resid))
        rows.append((n, "renormalized_convolution_order_norm", order_norm(ident, -3.5 + -1.0 + 3.0, m=0)))
        del kern, ident  # free this level before the next one is built
    write_csv(os.path.join(outdir, "kernel_diagnostics.csv"), ["N", "quantity", "value"], rows)
    return ["kernel_diagnostics.csv"], {}, 0


_EXPERIMENTS = {
    "validate": _exp_validate,
    "constants": _exp_constants,
    "heat-kernel": _exp_heat_kernel,
    "simulate": _exp_simulate,
    "processes": _exp_processes,
    "regularity": _exp_regularity,
    "convergence": _exp_convergence,
    "kernel-diagnostics": _exp_kernel_diag,
}
EXPERIMENT_KINDS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig, out_root: str | None = None) -> ResultBundle:
    # validate must be able to REPORT inadmissible families; everything else
    # needs the admissibility-enforcing constructor up front
    fam = None if cfg.kind == "validate" else family_from_config(cfg.family)
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    base = os.path.join(out_root or cfg.out, f"{cfg.kind}-{stamp}")
    suffix = 0
    while True:
        # creating the directory is the claim, so concurrent runs cannot share one
        outdir = f"{base}-{suffix}" if suffix else base
        try:
            os.makedirs(outdir)
            break
        except FileExistsError:
            suffix += 1
    t0 = time.monotonic()
    files, extra, code = _EXPERIMENTS[cfg.kind](cfg, fam, outdir)
    manifest = {
        "config": cfg.echo(),
        "version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    manifest.update(extra)
    bundle = ResultBundle(directory=outdir, manifest=manifest, files=sorted(set(files)), exit_code=code)
    emit(bundle)
    return bundle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sbe", description=__doc__)
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="seed (config value wins if present)")
        p.add_argument("--out", default=None, help="output root directory")
    args = parser.parse_args(argv)
    try:
        raw = _load_json(args.config)
        # Precedence: config value over flag, flag over SBE_SEED env.
        if isinstance(raw, dict) and "seed" not in raw:
            if args.seed is not None:
                raw["seed"] = args.seed
            elif os.environ.get("SBE_SEED"):
                raw["seed"] = os.environ["SBE_SEED"]
        cfg = config_from_dict(raw, kind=args.kind)
        if cfg.kind != args.kind:
            raise SchemaError(f"kind: config says {cfg.kind!r} but subcommand is {args.kind!r}")
        bundle = run_experiment(cfg, out_root=args.out)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(bundle.directory)
    if cfg.kind == "validate" and bundle.exit_code == 1:
        print("validation failed", file=sys.stderr)
    return bundle.exit_code


if __name__ == "__main__":
    sys.exit(main())
