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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .fieldio import sha256_file, write_csv, write_field
from .grids import GridSpec, sample_noise
from .heat import HeatKernel
from .kernels import order_norm, renormalized_square_check
from .measures import AtomicMeasure1D, AtomicMeasure2D, preset_measure, validate_mu, validate_nu, validate_pi
from .norms import estimate_exponent, make_test_family
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

EXPERIMENT_KINDS = (
    "validate",
    "constants",
    "heat-kernel",
    "simulate",
    "processes",
    "regularity",
    "convergence",
    "kernel-diagnostics",
)

N_GUARD = 10
DRIFT_MODES = ("none", "renormalized")
INITIAL_KINDS = ("zero", "constant", "white-noise")


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
        return {
            "kind": self.kind,
            "family": self.family,
            "N": self.N,
            "N_range": self.N_range,
            "T": self.T,
            "seed": self.seed,
            "replicas": self.replicas,
            "drift": self.drift,
            "initial": self.initial,
            "alpha": self.alpha,
            "eta": self.eta,
        }


def _measure_from(entry, kind: str):
    if isinstance(entry, str):
        return preset_measure(entry)
    if isinstance(entry, dict) and "atoms" in entry:
        if kind == "mu":
            return AtomicMeasure2D.from_json(entry)
        return AtomicMeasure1D.from_json(entry)
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


def _coerced(raw: dict, key: str, to, default):
    value = raw.get(key, default)
    try:
        return to(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{key}: expected {'an integer' if to is int else 'a number'}, got {value!r}") from exc


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
    cfg = ExperimentConfig(
        kind=cfg_kind,
        family=raw["family"],
        N=raw.get("N"),
        N_range=raw.get("N_range"),
        T=_coerced(raw, "T", float, 0.25),
        seed=_coerced(raw, "seed", int, 0),
        replicas=_coerced(raw, "replicas", int, 1),
        drift=raw.get("drift", "none"),
        initial=raw.get("initial", {"kind": "zero"}),
        alpha=_coerced(raw, "alpha", float, -0.6),
        eta=_coerced(raw, "eta", float, -0.6),
        out=raw.get("out", "sbe-out"),
    )
    if cfg.N_range is not None and not isinstance(cfg.N_range, (list, tuple)):
        raise SchemaError(f"N_range: expected a list of levels, got {cfg.N_range!r}")
    if not isinstance(cfg.initial, dict):
        raise SchemaError(f"initial: expected an object with a kind, got {cfg.initial!r}")
    if cfg.N is None and not cfg.N_range:
        raise SchemaError("N: missing (give N or N_range)")
    for n in cfg.levels():
        if not isinstance(n, int) or n < 1 or n > N_GUARD:
            raise SchemaError(f"N: level {n} outside 1..{N_GUARD} (desk-scale guard)")
    if not (math.isfinite(cfg.T) and cfg.T > 0):
        raise SchemaError(f"T: expected a finite horizon > 0, got {cfg.T!r}")
    for n in cfg.levels():
        steps = cfg.T * 4**n
        if abs(steps - round(steps)) > 1e-9:
            raise SchemaError(f"T: {cfg.T!r} is not a whole number of time steps 4^-{n} at level {n}")
    if cfg.replicas < 1:
        raise SchemaError("replicas: must be >= 1")
    number = isinstance(cfg.drift, (int, float)) and not isinstance(cfg.drift, bool)
    if not (number and math.isfinite(cfg.drift) or cfg.drift in DRIFT_MODES):
        raise SchemaError(f"drift: expected 'none', 'renormalized' or a finite number, got {cfg.drift!r}")
    if cfg.initial.get("kind", "zero") not in INITIAL_KINDS:
        raise SchemaError(f"initial.kind: expected one of {', '.join(INITIAL_KINDS)}, got {cfg.initial.get('kind')!r}")
    measures_from_config(cfg.family)  # fail fast on malformed atoms
    return cfg


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
    with open(os.path.join(bundle.directory, "manifest.json"), "w") as fh:
        json.dump(bundle.manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


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
    with open(os.path.join(outdir, "validation.json"), "w") as fh:
        json.dump({"ok": ok, "reports": payload, "scheme": hk_note}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return ["validation.json"], {"ok": ok}, 0 if ok else 1


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
    noise = sample_noise(grid, cfg.seed)
    b = _drift_value(cfg, fam)
    scheme = SchemeConfig(fam=fam, grid=grid, b_drift=b, record_stride=max(1, grid.n_steps // 64))
    traj = run(scheme, _initial_slice(cfg, grid), noise, cfg.T)
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
    with open(os.path.join(outdir, "run.json"), "w") as fh:
        json.dump(run_manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    files.append("run.json")
    return files, {"blowup": traj.blowup}, 3 if traj.blowup else 0


def _exp_processes(cfg, fam, outdir):
    grid = GridSpec(cfg.N, cfg.T)
    consts = compute_constants(fam, grid, "lattice_sum")
    files: list[str] = []
    finals = {lab: [] for lab in TREE_LABELS}
    for rep in range(cfg.replicas):
        noise = sample_noise(grid, cfg.seed + rep)
        tps = lift(noise, fam, consts)
        for lab in TREE_LABELS:
            finals[lab].append(float(tps[lab][-1, 0]))
        if rep == 0:
            for lab in TREE_LABELS:
                files += write_field(outdir, f"tree_{lab}", tps[lab], {"N": grid.N, "T": grid.T, "seed": cfg.seed})
    rows = []
    for lab in TREE_LABELS:
        vals = finals[lab]
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        rows.append((lab, cfg.T, mean, stderr, cfg.replicas))
    write_csv(os.path.join(outdir, "mc_summary.csv"), ["label", "t", "mean", "stderr", "replicas"], rows)
    files.append("mc_summary.csv")
    return files, {"c2": consts.c2, "c21": consts.c21}, 0


def _exp_regularity(cfg, fam, outdir):
    from .grids import LatticeField

    grid = GridSpec(cfg.N, cfg.T)
    consts = compute_constants(fam, grid, "lattice_sum")
    # at least four dyadic scales per mode; parabolic scales must fit kt in
    # the horizon (2 lambda^2 <= T)
    lam_min = 4 * grid.eps
    tf_space = make_test_family(grid, lambda_min=lam_min, lambda_max=min(0.5, max(0.125, 8 * lam_min)))
    lam_p = 2.0 ** math.floor(math.log2(math.sqrt((cfg.T - grid.dt) / 2.0)))
    tf_para = make_test_family(grid, lambda_min=max(grid.eps, lam_p / 8), lambda_max=lam_p)
    targets = {"T1": "space", "T11": "space", "T12": "space", "T2": "parabolic"}
    table: dict[str, list[float]] = {lab: [] for lab in list(targets) + ["noise"]}
    curves = []
    estimates = {}
    for rep in range(cfg.replicas):
        noise = sample_noise(grid, cfg.seed + rep)
        tps = lift(noise, fam, consts, labels=tuple(targets))
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
    rows = []
    for lab, vals in table.items():
        mode = targets.get(lab, "parabolic")
        sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        rows.append((lab, mode, float(np.mean(vals)), sd, cfg.replicas))
    write_csv(os.path.join(outdir, "exponents.csv"), ["target", "mode", "exponent_mean", "exponent_sd", "replicas"], rows)
    write_csv(os.path.join(outdir, "pairings.csv"), ["target", "lambda", "sup_pairing"], curves)
    with open(os.path.join(outdir, "estimates.json"), "w") as fh:
        json.dump(estimates, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return ["exponents.csv", "pairings.csv", "estimates.json"], {}, 0


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
    levels = sorted(cfg.levels())
    if len(levels) < 3:
        raise SchemaError("N_range: convergence needs at least three dyadic levels")
    study = coupled_convergence_study(
        fam, levels, cfg.T, cfg.replicas, cfg.seed, cfg.alpha, cfg.eta, b_drift=_drift_value(cfg, fam)
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
        grid = GridSpec(n, min(cfg.T, 0.25))
        kern, ident, resid = renormalized_square_check(fam, grid)
        rows.append((n, "order_norm_K_zeta_-1_m2", order_norm(kern, -1.0, m=2)))
        rows.append((n, "renormalized_convolution_identity_residual", resid))
        rows.append((n, "renormalized_convolution_order_norm", order_norm(ident, -3.5 + -1.0 + 3.0, m=0)))
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
