"""Configuration-driven command line front end: parse a config, run its ``KINDS`` record, write the results.

One subcommand per experiment kind; a JSON config names the discretization
family (presets or inline atoms), grid level(s), horizon, seed, replica
count and drift mode, and no other field. Every run lands in a fresh
timestamped directory containing a manifest (config echo, library version,
wall time, checksums) plus CSV/binary artifacts; identical (config, seed)
pairs reproduce the data files byte for byte.

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
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .fieldio import FieldAppender, sha256_file, write_csv, write_field, write_json
from .grids import GridSpec, NoiseField
from .heat import HeatKernel
from .kernels import renormalized_square_check, square_check_bytes
from .measures import AtomicMeasure1D, AtomicMeasure2D, preset_measure, validate_mu, validate_nu, validate_pi
from .norms import PROFILE_SMOOTHNESS, regularity_bytes, regularity_families, regularity_table
from .operators import OperatorFamily, check_wrap
from .processes import TREE_LABELS, lift_chunk_bytes, mc_summary
from .renorm import c2_lattice_sum, c2_quadrature, c21, compute_constants
from .solver import (
    SchemeConfig,
    consecutive_levels,
    coupled_convergence_study,
    drift_coefficient,
    ic_constant,
    ic_white_noise,
    ic_zero,
    run,
    study_family,
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
        echoed = asdict(self)
        del echoed["out"]
        return echoed


@dataclass(frozen=True)
class Kind:
    """An experiment kind, as the front end reads it."""

    run: Callable  # (cfg, fam, grids, outdir) -> (files, extra manifest entries, exit code)
    one_level: bool = False  # runs at N; N_range is not read
    consecutive: int = 0  # least number of consecutive levels
    stencils: tuple = ()  # of "nu", "pi", "mu"
    check: tuple | None = None  # (fits(coarsest grid), refusal text)
    need: Callable | None = None  # largest grid -> (peak bytes, what for)
    horizon: float = math.inf

    def grids(self, cfg: ExperimentConfig) -> list[GridSpec]:
        return [GridSpec(n, min(cfg.T, self.horizon)) for n in ([cfg.N] if self.one_level else cfg.levels())]


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
    _refuse_unknown(family, ("nu", "pi", "mu"), "family.")
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


def _refuse_unknown(entry: dict, known, prefix: str = "") -> None:
    for key in entry:
        if key not in known:
            raise SchemaError(f"{prefix}{key}: unknown field, expected one of {', '.join(known)}")


def config_from_dict(raw: dict, kind: str | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise SchemaError(f"config: expected a JSON object, got {type(raw).__name__}")
    _refuse_unknown(raw, [f.name for f in fields(ExperimentConfig)])
    if "family" not in raw:
        raise SchemaError("family: missing")
    cfg_kind = raw.get("kind", kind)
    if cfg_kind is None:
        raise SchemaError("kind: missing (set it in the config or pick a subcommand)")
    if cfg_kind not in KINDS:
        raise SchemaError(f"kind: {cfg_kind!r} is not one of {', '.join(KINDS)}")
    spec = KINDS[cfg_kind]
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
    if not isinstance(cfg.out, str):
        raise SchemaError(f"out: expected a directory path, got {cfg.out!r}")
    if not isinstance(cfg.initial, dict):
        raise SchemaError(f"initial: expected an object with a kind, got {cfg.initial!r}")
    _refuse_unknown(cfg.initial, ("kind", "value"), "initial.")
    if cfg.N is None and not cfg.N_range:
        raise SchemaError("N: missing (give N or N_range)")
    if cfg.N is None and spec.one_level:
        raise SchemaError(f"N: missing ({cfg.kind} runs at one level N; N_range is not read)")
    # the field holding the levels the run reads: N_range replaces N, except for a one-level kind
    name = "N" if spec.one_level or not cfg.N_range else "N_range"
    given = [cfg.N] if name == "N" else cfg.N_range
    for n in given:
        if not 1 <= n <= N_GUARD:
            raise SchemaError(f"{name}: level {n} outside 1..{N_GUARD} (desk-scale guard)")
    if cfg.N_range and len(set(cfg.N_range)) < len(cfg.N_range):
        raise SchemaError(f"N_range: a level is given more than once in {cfg.N_range}")
    if not (math.isfinite(cfg.T) and cfg.T > 0):
        raise SchemaError(f"T: expected a finite horizon > 0, got {cfg.T!r}")
    for n in given:
        steps = cfg.T * 4**n
        if abs(steps - round(steps)) > 1e-9:
            raise SchemaError(f"T: {cfg.T!r} is not a whole number of time steps 4^-{n} at level {n}")
    grids = sorted(spec.grids(cfg), key=lambda grid: grid.N)
    if spec.consecutive:
        try:
            consecutive_levels([grid.N for grid in grids], spec.consecutive)
        except ValueError as exc:
            raise SchemaError(f"N_range: {exc}") from exc
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
        value = _coerced("initial.value", cfg.initial.get("value", 0.0), float)  # what _initial_slice reads
        if not math.isfinite(value):
            raise SchemaError(f"initial.value: expected a finite number, got {value!r}")
    measures = dict(zip(("nu", "pi", "mu"), measures_from_config(cfg.family)))  # fail fast on malformed atoms
    if spec.check is not None:
        fits, refusal = spec.check
        try:
            fits(grids[0])
        except ValueError as exc:
            raise SchemaError(refusal.format(cfg=cfg, grid=grids[0], exc=exc)) from exc
    try:
        for key in spec.stencils:
            check_wrap(measures[key].radius, grids[0].M)
    except ValueError as exc:
        raise SchemaError(f"{name}: level {grids[0].N} is too coarse for {cfg.kind} ({exc})") from exc
    _check_memory(cfg, spec, grids[-1], name)
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


def _check_memory(cfg: ExperimentConfig, spec: Kind, grid: GridSpec, name: str) -> None:
    """Refuse a config whose largest level, ``grid``, needs more than the memory available."""
    if spec.need is None or (budget := _memory_available()) is None:
        return
    need, what = spec.need(grid)
    if need > budget:
        at = f" at T={cfg.T!r}" if spec.one_level else ""
        raise SchemaError(
            f"{name}: level {grid.N}{at} needs about {need / 1e9:.2f} GB for {what}, "
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
# the run of each Kind: each returns (files, extra manifest entries, exit code)


def _exp_validate(cfg, fam, grids, outdir):
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


def _exp_constants(cfg, fam, grids, outdir):
    rows = []
    label = json.dumps(cfg.family, sort_keys=True)
    for grid in grids:
        rows.append(
            (
                grid.N,
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


def _exp_heat_kernel(cfg, fam, grids, outdir):
    (grid,) = grids
    hk = HeatKernel(grid, fam)
    writer = FieldAppender(outdir, "kernel", {"N": grid.N, "T": grid.T, "seed": None})
    write_csv(os.path.join(outdir, "heat_kernel.csv"), ["quantity", "value"], hk.diagnostics(writer.append))
    return ["heat_kernel.csv", *writer.close()], {}, 0


def _exp_simulate(cfg, fam, grids, outdir):
    (grid,) = grids
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


def _exp_processes(cfg, fam, grids, outdir):
    (grid,) = grids
    consts = compute_constants(fam, grid)
    meta = {"N": grid.N, "T": grid.T, "seed": cfg.seed}
    writers = {lab: FieldAppender(outdir, f"tree_{lab}", meta) for lab in TREE_LABELS}
    rows = mc_summary(fam, consts, grid, cfg.seed, cfg.replicas, lambda lab, values: writers[lab].append(values))
    files = [name for writer in writers.values() for name in writer.close()]
    write_csv(os.path.join(outdir, "mc_summary.csv"), ["label", "t", "mean", "stderr", "replicas"], rows)
    files.append("mc_summary.csv")
    return files, {"c2": consts.c2, "c21": consts.c21}, 0


def _exp_regularity(cfg, fam, grids, outdir):
    (grid,) = grids
    rows, first = regularity_table(fam, compute_constants(fam, grid), grid, cfg.seed, cfg.replicas)
    header = ["target", "mode", "exponent_mean", "exponent_sd", "replicas"]
    write_csv(os.path.join(outdir, "exponents.csv"), header, rows)
    # replica 0's pairing curves of the trees, and its estimates
    trees = [(lab, est) for lab, est in first.items() if lab != "noise"]
    curves = [(lab, lam, sup) for lab, est in trees for lam, sup in zip(est.scales, est.sup_pairings)]
    write_csv(os.path.join(outdir, "pairings.csv"), ["target", "lambda", "sup_pairing"], curves)
    estimates = {
        lab: {**asdict(est), "scales": est.scales.tolist(), "sup_pairings": est.sup_pairings.tolist()}
        for lab, est in first.items()
    }
    return ["exponents.csv", "pairings.csv", write_json(outdir, "estimates.json", estimates)], {}, 0


def _exp_convergence(cfg, fam, grids, outdir):
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


def _exp_kernel_diag(cfg, fam, grids, outdir):
    rows = []
    for grid in grids:
        k_norm, ident_norm, resid = renormalized_square_check(fam, grid)
        rows.append((grid.N, "order_norm_K_zeta_-1_m2", k_norm))
        rows.append((grid.N, "renormalized_convolution_identity_residual", resid))
        rows.append((grid.N, "renormalized_convolution_order_norm", ident_norm))
    write_csv(os.path.join(outdir, "kernel_diagnostics.csv"), ["N", "quantity", "value"], rows)
    return ["kernel_diagnostics.csv"], {}, 0


KINDS = {
    "validate": Kind(_exp_validate),
    "constants": Kind(_exp_constants),
    "heat-kernel": Kind(_exp_heat_kernel, one_level=True),
    "simulate": Kind(_exp_simulate, one_level=True, stencils=("nu", "pi", "mu")),
    "processes": Kind(
        _exp_processes, one_level=True, stencils=("mu",), need=lambda g: (lift_chunk_bytes(g), "the processes lifts")
    ),
    "regularity": Kind(
        _exp_regularity,
        one_level=True,
        stencils=("mu",),
        check=(regularity_families, "N={cfg.N}, T={cfg.T!r}: too few test-function scales to fit ({exc})"),
        need=lambda g: (regularity_bytes(g, regularity_families(g)[1]), "the regularity lifts"),
    ),
    "convergence": Kind(
        _exp_convergence,
        consecutive=3,
        stencils=("nu", "pi", "mu"),
        check=(study_family, "N_range: level {grid.N} is too coarse for convergence ({exc})"),
    ),
    # the split kernel's horizon is at most 1/4
    "kernel-diagnostics": Kind(
        _exp_kernel_diag, need=lambda g: (square_check_bytes(g), "the kernel diagnostics"), horizon=0.25
    ),
}
EXPERIMENT_KINDS = tuple(KINDS)


def run_experiment(cfg: ExperimentConfig, out_root: str | None = None) -> ResultBundle:
    # validate must be able to REPORT inadmissible families; everything else
    # needs the admissibility-enforcing constructor up front
    fam = None if cfg.kind == "validate" else family_from_config(cfg.family)
    spec = KINDS[cfg.kind]
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
    files, extra, code = spec.run(cfg, fam, spec.grids(cfg), outdir)
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
        detail = f": {exc}" if str(exc) else ""
        print(f"runtime error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 2
    print(bundle.directory)
    if cfg.kind == "validate" and bundle.exit_code == 1:
        print("validation failed", file=sys.stderr)
    return bundle.exit_code


if __name__ == "__main__":
    sys.exit(main())
