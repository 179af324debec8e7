import csv
import json
import os
from pathlib import Path

import pytest

import numpy as np

from sbe import cli
from sbe.cli import (
    EXPERIMENT_KINDS,
    SchemaError,
    _regularity_families,
    config_from_dict,
    family_from_config,
    main,
    parse_config,
    run_experiment,
)
from sbe.fieldio import read_field, sha256_file
from sbe.grids import GridSpec, LatticeField, sample_noise
from sbe.kernels import square_check_bytes
from sbe.norms import estimate_exponent
from sbe.processes import TREE_LABELS, lift
from sbe.renorm import compute_constants
from sbe.solver import SchemeConfig, ic_white_noise, run

FAMILY = {"nu": "laplacian-nn", "pi": "deriv-backward", "mu": "product-sasamoto-spohn"}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfigSchema:
    def test_missing_family_named(self, tmp_path):
        path = write_config(tmp_path, {"kind": "validate", "N": 5})
        with pytest.raises(SchemaError, match="family"):
            parse_config(path)

    def test_missing_level_named(self):
        with pytest.raises(SchemaError, match="N"):
            config_from_dict({"kind": "validate", "family": FAMILY})

    def test_unknown_kind_enumerates_choices(self):
        with pytest.raises(SchemaError, match="validate, constants"):
            config_from_dict({"kind": "frobnicate", "family": FAMILY, "N": 5})

    def test_desk_scale_guard(self):
        with pytest.raises(SchemaError, match="desk-scale"):
            config_from_dict({"kind": "simulate", "family": FAMILY, "N": 14})

    def test_replica_guard(self):
        with pytest.raises(SchemaError, match="replicas"):
            config_from_dict({"kind": "processes", "family": FAMILY, "N": 5, "replicas": 0})

    def test_inline_atoms_accepted(self):
        fam = family_from_config(
            {
                "nu": {"atoms": [[-1, 1.0], [0, -2.0], [1, 1.0]]},
                "pi": "deriv-central",
                "mu": {"atoms": [[0, 0, 1.0]]},
            }
        )
        assert fam.nu_bar == 4.0

    def test_round_trip_through_manifest_echo(self, tmp_path):
        cfg = config_from_dict({"kind": "validate", "family": FAMILY, "N": 5, "T": 0.125, "seed": 3})
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        echoed = json.loads(Path(bundle.directory, "manifest.json").read_text())["config"]
        again = config_from_dict({k: v for k, v in echoed.items() if v is not None})
        assert again == cfg


class TestExperiments:
    def test_validate_ok_exit_zero(self, tmp_path):
        cfg = config_from_dict({"kind": "validate", "family": FAMILY, "N": 5, "T": 0.125})
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        assert bundle.exit_code == 0
        report = json.loads(Path(bundle.directory, "validation.json").read_text())
        assert report["ok"]
        assert report["scheme"]["marginally_oscillatory"]

    def test_validate_failure_exit_one(self, tmp_path):
        bad = dict(FAMILY, nu={"atoms": [[-1, 1.0], [1, 1.0]]})
        cfg = config_from_dict({"kind": "validate", "family": bad, "N": 5, "T": 0.125})
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        assert bundle.exit_code == 1

    def test_constants_antisymmetry_kill_column(self, tmp_path):
        family = {"nu": "laplacian-nn", "pi": "deriv-central", "mu": "product-pointwise"}
        cfg = config_from_dict({"kind": "constants", "family": family, "N_range": [5, 6], "T": 0.25})
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        rows = Path(bundle.directory, "constants.csv").read_text().splitlines()
        header = rows[0].split(",")
        i_q = header.index("c21_quadrature")
        i_m = header.index("c21_modesum")
        for row in rows[1:]:
            cells = next(iter(__import__("csv").reader([row])))
            assert abs(float(cells[i_q])) < 1e-10
            assert abs(float(cells[i_m])) < 1e-10

    def test_simulate_blowup_exit_three(self, tmp_path):
        cfg = config_from_dict(
            {
                "kind": "simulate",
                "family": FAMILY,
                "N": 5,
                "T": 0.125,
                "seed": 11,
                "initial": {"kind": "white-noise"},
            }
        )
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        assert bundle.exit_code == 3
        manifest = json.loads(Path(bundle.directory, "run.json").read_text())
        assert manifest["blowup"] and "blowup_time" in manifest

    def test_simulate_streams_the_noise_it_would_sample(self, tmp_path, fam_bw_ss, monkeypatch):
        def refuse(grid, seed):
            raise AssertionError("simulate drew the whole noise field")

        monkeypatch.setattr(cli, "sample_noise", refuse)
        raw = {"kind": "simulate", "family": FAMILY, "N": 6, "T": 0.0625, "seed": 4, "initial": {"kind": "white-noise"}}
        bundle = run_experiment(config_from_dict(raw), out_root=str(tmp_path))
        values, meta = read_field(bundle.directory, "trajectory")
        grid = GridSpec(6, 0.0625)
        cfg = SchemeConfig(fam_bw_ss, grid, record_stride=grid.n_steps // 64)
        want = run(cfg, ic_white_noise(grid, 4), sample_noise(grid, 4), grid.T)
        assert np.array_equal(values, want.values()) and meta["times"] == want.times.tolist()

    def test_convergence_manifest_records_drops_and_escapes(self, tmp_path):
        cfg = config_from_dict(
            {
                "kind": "convergence",
                "family": FAMILY,
                "N_range": [4, 5, 6],
                "T": 0.0625,
                "seed": 1,
                "replicas": 12,
                "drift": "renormalized",
            }
        )
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        manifest = json.loads(Path(bundle.directory, "manifest.json").read_text())
        assert manifest["config"]["initial"] == {"kind": "zero"}
        assert manifest["initial_condition"].startswith("white-noise") and "ignored" in manifest["initial_condition"]
        dropped = manifest["dropped_replicas"]
        escapes = manifest["escape_times"]
        assert dropped and dropped == sorted(set(dropped)) and set(dropped) <= set(range(12))
        assert len(escapes) == 12 and all(t is None or 0.0 < t <= 0.0625 for t in escapes)
        assert any(t is not None for t in escapes)
        rows = Path(bundle.directory, "medians.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[-1]) for row in rows] == [12 - len(dropped)] * 2

    def test_manifest_lists_every_file(self, tmp_path):
        cfg = config_from_dict({"kind": "heat-kernel", "family": FAMILY, "N": 5, "T": 0.125})
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        manifest = json.loads(Path(bundle.directory, "manifest.json").read_text())
        listed = {f["name"] for f in manifest["files"]}
        present = set(os.listdir(bundle.directory)) - {"manifest.json"}
        assert listed == present
        for entry in manifest["files"]:
            assert sha256_file(os.path.join(bundle.directory, entry["name"])) == entry["sha256"]

    def test_taken_output_directory_gets_suffix(self, tmp_path, monkeypatch):
        import time

        monkeypatch.setattr(time, "strftime", lambda fmt, t=None: "20260101-000000")
        os.makedirs(tmp_path / "validate-20260101-000000")
        cfg = config_from_dict({"kind": "validate", "family": FAMILY, "N": 5})
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        assert bundle.directory == str(tmp_path / "validate-20260101-000000-1")
        assert os.path.exists(os.path.join(bundle.directory, "manifest.json"))

    def test_byte_reproducibility(self, tmp_path):
        payload = {"kind": "processes", "family": FAMILY, "N": 4, "T": 0.125, "replicas": 2, "seed": 9}
        a = run_experiment(config_from_dict(payload), out_root=str(tmp_path))
        b = run_experiment(config_from_dict(payload), out_root=str(tmp_path))
        for entry in json.loads(Path(a.directory, "manifest.json").read_text())["files"]:
            other = os.path.join(b.directory, entry["name"])
            assert sha256_file(other) == entry["sha256"], entry["name"]


class TestMainEntry:
    def test_cli_happy_path(self, tmp_path, capsys):
        path = write_config(tmp_path, {"family": FAMILY, "N": 5, "T": 0.125})
        code = main(["validate", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out").exists()

    def test_cli_schema_error_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"N": 5})
        assert main(["validate", "--config", path]) == 2
        assert "family" in capsys.readouterr().err

    def test_seed_precedence_config_over_flag_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SBE_SEED", "77")
        path = write_config(tmp_path, {"family": FAMILY, "N": 4, "T": 0.125, "replicas": 1})
        out = str(tmp_path / "o1")
        assert main(["processes", "--config", path, "--seed", "5", "--out", out]) == 0
        run_dir = next(p for p in (tmp_path / "o1").iterdir())
        assert json.loads((run_dir / "manifest.json").read_text())["config"]["seed"] == 5

        path2 = write_config(tmp_path, {"family": FAMILY, "N": 4, "T": 0.125, "seed": 3}, "c2.json")
        out = str(tmp_path / "o2")
        assert main(["processes", "--config", path2, "--seed", "5", "--out", out]) == 0
        run_dir = next(p for p in (tmp_path / "o2").iterdir())
        assert json.loads((run_dir / "manifest.json").read_text())["config"]["seed"] == 3

        out = str(tmp_path / "o3")
        assert main(["processes", "--config", path, "--out", out]) == 0
        run_dir = next(p for p in (tmp_path / "o3").iterdir())
        assert json.loads((run_dir / "manifest.json").read_text())["config"]["seed"] == 77

    def test_all_kinds_have_subcommands(self):
        for kind in EXPERIMENT_KINDS:
            with pytest.raises(SystemExit):
                main([kind, "--help"])


class TestMalformedConfig:
    """A config the schema cannot read exits 2 with a config error, never a traceback."""

    @pytest.mark.parametrize(
        "payload",
        [
            3,
            [FAMILY],
            {"family": FAMILY, "N": 5, "seed": "x"},
            {"family": FAMILY, "N_range": 5},
            {"family": FAMILY, "N": 5, "T": "soon"},
            {"family": FAMILY, "N": 5, "replicas": None},
            {"family": FAMILY, "N": 5, "alpha": [1]},
            {"family": FAMILY, "N": 5, "eta": {}},
            {"family": FAMILY, "N": 5, "seed": 1e400},
            {"family": FAMILY, "N": 5, "initial": 5},
        ],
    )
    def test_exit_two_config_error(self, tmp_path, capsys, payload):
        path = write_config(tmp_path, payload)
        assert main(["validate", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["T", "seed", "replicas", "alpha", "eta", "N_range"])
    def test_uncoercible_field_named(self, field):
        with pytest.raises(SchemaError, match=field):
            config_from_dict({"kind": "validate", "family": FAMILY, "N": 5, field: "x"})

    def test_bad_seed_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SBE_SEED", "abc")
        path = write_config(tmp_path, {"family": FAMILY, "N": 5})
        assert main(["validate", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 2
        assert "config error" in capsys.readouterr().err


class TestConfigFailsBeforeOutput:
    """A bad horizon, drift or initial kind exits 2, naming it, before any output directory exists."""

    @pytest.mark.parametrize(
        "bad",
        [
            {"T": 0},
            {"T": -1},
            {"T": float("nan")},
            {"T": float("inf")},
            {"T": 0.1},
            {"drift": "sideways"},
            {"initial": {"kind": "spiky"}},
        ],
    )
    def test_exit_two_nothing_created(self, tmp_path, capsys, bad):
        path = write_config(tmp_path, dict({"family": FAMILY, "N": 5, "T": 0.125}, **bad))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        field = "initial.kind" if "initial" in bad else next(iter(bad))
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels, field", [({"N_range": [5, 7]}, "N_range"), ({"N": 7}, "N")])
    def test_kernel_diagnostics_beyond_the_memory_available(self, tmp_path, capsys, monkeypatch, levels, field):
        need = square_check_bytes(GridSpec(7, 0.125))
        monkeypatch.setattr(cli, "_memory_available", lambda: need - 1)
        path = write_config(tmp_path, dict({"family": FAMILY, "T": 0.125}, **levels))
        out = tmp_path / "out"
        assert main(["kernel-diagnostics", "--config", path, "--out", str(out)]) == 2
        assert f"config error: {field}: level 7 needs about {need / 1e9:.2f} GB" in capsys.readouterr().err
        assert not out.exists()

    def test_kernel_diagnostics_within_the_memory_available(self, monkeypatch):
        # the horizon is cut to 1/4, and an unreadable budget refuses nothing
        raw = {"kind": "kernel-diagnostics", "family": FAMILY, "N_range": [5, 7], "T": 1.0}
        for budget in (square_check_bytes(GridSpec(7, 0.25)), None):
            monkeypatch.setattr(cli, "_memory_available", lambda: budget)
            assert config_from_dict(raw).N_range == [5, 7]

    @pytest.mark.parametrize(
        "kind, bad, field",
        [
            ("heat-kernel", {"N_range": [5]}, "N"),
            ("simulate", {"N_range": [5]}, "N"),
            ("processes", {"N_range": [5]}, "N"),
            ("regularity", {"N_range": [5]}, "N"),
            ("simulate", {"N": 14, "N_range": [5]}, "N"),
            ("convergence", {"N_range": [5, 6]}, "N_range"),
            ("convergence", {"N_range": [5, 5, 6]}, "N_range"),
            ("simulate", {"N": 5, "initial": {"kind": "constant", "value": "x"}}, "initial.value"),
        ],
        ids=["heat-kernel", "simulate", "processes", "regularity", "N-beside-N_range", "two-levels", "repeated-level", "initial-value"],
    )
    def test_level_and_initial_value_checked_first(self, tmp_path, capsys, kind, bad, field):
        path = write_config(tmp_path, dict({"family": FAMILY, "T": 0.125}, **bad))
        out = tmp_path / "out"
        assert main([kind, "--config", path, "--out", str(out)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad, field",
        [
            ({"alpha": float("nan")}, "alpha"),
            ({"alpha": "inf"}, "alpha"),
            ({"alpha": -5.0}, "alpha"),
            ({"alpha": 4}, "alpha"),
            ({"eta": "nan"}, "eta"),
            ({"eta": float("-inf")}, "eta"),
            ({"seed": -1}, "seed"),
            ({"seed": "-3"}, "seed"),
        ],
    )
    def test_convergence_parameters_checked_first(self, tmp_path, capsys, bad, field):
        payload = dict({"family": FAMILY, "N_range": [3, 4, 5], "T": 0.125, "replicas": 2}, **bad)
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["convergence", "--config", path, "--out", str(out)]) == 2
        assert f"config error: {field}: expected a " in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_from_flag_or_env_checked_first(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, {"family": FAMILY, "N": 5, "T": 0.125})
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--seed", "-1", "--out", str(out)]) == 2
        monkeypatch.setenv("SBE_SEED", "-2")
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("config error: seed: expected a non-negative integer") == 2
        assert not out.exists()

    @pytest.mark.parametrize("N, T", [(5, 0.125), (8, 4.0**-8)], ids=["three-space-scales", "one-time-step"])
    def test_regularity_without_enough_scales(self, tmp_path, capsys, N, T):
        path = write_config(tmp_path, {"family": FAMILY, "N": N, "T": T})
        out = tmp_path / "out"
        assert main(["regularity", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: N={N}, T={T!r}: " in err and "scales" in err
        assert not out.exists()

    def test_regularity_at_the_smallest_level_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, {"family": FAMILY, "N": 6, "T": 0.0625})
        out = tmp_path / "out"
        assert main(["regularity", "--config", path, "--out", str(out)]) == 0
        assert {"exponents.csv", "pairings.csv", "estimates.json"} <= set(os.listdir(capsys.readouterr().out.strip()))

    def test_regularity_exponents_are_those_of_full_lifts(self, tmp_path, capsys):
        # the run lifts T11 and T12 at the last slice only; the table must not move
        seed, replicas = 11, 2
        path = write_config(tmp_path, {"family": FAMILY, "N": 6, "T": 0.0625, "seed": seed, "replicas": replicas})
        assert main(["regularity", "--config", path, "--out", str(tmp_path / "out")]) == 0
        with open(os.path.join(capsys.readouterr().out.strip(), "exponents.csv")) as fh:
            got = {row["target"]: row for row in csv.DictReader(fh)}
        fam = family_from_config(FAMILY)
        grid = GridSpec(6, 0.0625)
        consts = compute_constants(fam, grid)
        tf_space, tf_para = _regularity_families(grid)
        targets = {"T1": tf_space, "T11": tf_space, "T12": tf_space, "T2": tf_para}
        want = {lab: [] for lab in [*targets, "noise"]}
        for rep in range(replicas):
            noise = sample_noise(grid, seed + rep)
            tps = lift(noise, fam, consts, labels=tuple(targets))
            for lab, tf in targets.items():
                mode = "space" if tf is tf_space else "parabolic"
                want[lab].append(estimate_exponent(LatticeField(grid, tps[lab]), tf, mode=mode).exponent)
            noise_est = estimate_exponent(LatticeField(grid, noise.values), tf_para, mode="parabolic")
            want["noise"].append(noise_est.exponent)
        assert set(got) == set(want)
        for lab, vals in want.items():
            assert float(got[lab]["exponent_mean"]) == float(np.mean(vals)), lab
            assert float(got[lab]["exponent_sd"]) == float(np.std(vals, ddof=1)), lab

    def test_processes_summary_is_that_of_full_lifts(self, tmp_path, capsys, monkeypatch):
        # replicas after the first lift T11, T21, T124 and T1222 at the last
        # slice only; the summary and the written trees must not move
        seed, replicas = 21, 3
        heights = []

        def recorded(*args, **kwargs):
            tps = lift(*args, **kwargs)
            heights.append(tps["T1222"].shape[0])
            return tps

        monkeypatch.setattr(cli, "lift", recorded)
        path = write_config(tmp_path, {"family": FAMILY, "N": 5, "T": 0.25, "seed": seed, "replicas": replicas})
        assert main(["processes", "--config", path, "--out", str(tmp_path / "out")]) == 0
        outdir = capsys.readouterr().out.strip()
        with open(os.path.join(outdir, "mc_summary.csv")) as fh:
            got = {row["label"]: row for row in csv.DictReader(fh)}
        fam = family_from_config(FAMILY)
        grid = GridSpec(5, 0.25)
        consts = compute_constants(fam, grid)
        finals = {lab: [] for lab in TREE_LABELS}
        for rep in range(replicas):
            tps = lift(sample_noise(grid, seed + rep), fam, consts)
            for lab in TREE_LABELS:
                finals[lab].append(float(tps[lab][-1, 0]))
            if rep == 0:
                for lab in TREE_LABELS:
                    assert np.array_equal(read_field(outdir, f"tree_{lab}")[0], tps[lab]), lab
        assert set(got) == set(TREE_LABELS)
        for lab, vals in finals.items():
            assert float(got[lab]["mean"]) == float(np.mean(vals)), lab
            assert float(got[lab]["stderr"]) == float(np.std(vals, ddof=1) / np.sqrt(replicas)), lab
            assert float(got[lab]["t"]) == 0.25 and int(got[lab]["replicas"]) == replicas, lab
        assert heights == [grid.n_steps + 1, 1, 1]

    @pytest.mark.parametrize(
        "family, field",
        [
            (dict(FAMILY, nu={"atoms": [[-1, 1.0], [0, float("nan")], [1, 1.0]]}), "family.nu"),
            (dict(FAMILY, nu={"atoms": [[-1, 1.0], [0, "heavy"], [1, 1.0]]}), "family.nu"),
            (dict(FAMILY, mu={"atoms": [[0, 1.0]]}), "family.mu"),
            (dict(FAMILY, pi="deriv-sideways"), "family.pi"),
        ],
        ids=["nan-weight", "string-weight", "two-element-mu-atom", "unknown-preset"],
    )
    def test_malformed_measures_named(self, tmp_path, capsys, family, field):
        path = write_config(tmp_path, {"family": family, "N": 5, "T": 0.125})
        out = tmp_path / "out"
        assert main(["processes", "--config", path, "--out", str(out)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, bad, field",
        [
            ("simulate", {"replicas": 2.7}, "replicas"),
            ("simulate", {"seed": 1.9}, "seed"),
            ("simulate", {"seed": True}, "seed"),
            ("simulate", {"replicas": True}, "replicas"),
            ("simulate", {"N": True}, "N"),
            ("simulate", {"N": 5.5}, "N"),
            ("constants", {"N": None, "N_range": [True, 2, 3]}, "N_range"),
            ("constants", {"N": None, "N_range": [2, 3.5]}, "N_range"),
        ],
    )
    def test_integer_fields_reject_booleans_and_fractions(self, tmp_path, capsys, kind, bad, field):
        payload = {k: v for k, v in dict({"family": FAMILY, "N": 5, "T": 0.25}, **bad).items() if v is not None}
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([kind, "--config", path, "--out", str(out)]) == 2
        assert f"config error: {field}: expected an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad, field",
        [
            ({"T": True}, "T"),
            ({"alpha": True}, "alpha"),
            ({"eta": False}, "eta"),
            ({"initial": {"kind": "constant", "value": True}}, "initial.value"),
        ],
    )
    def test_float_fields_reject_booleans(self, tmp_path, capsys, bad, field):
        path = write_config(tmp_path, dict({"family": FAMILY, "N": 5, "T": 0.25}, **bad))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert f"config error: {field}: expected a " in capsys.readouterr().err
        assert not out.exists()

    def test_integral_numbers_and_strings_accepted(self):
        cfg = config_from_dict({"kind": "processes", "family": FAMILY, "N": "5", "seed": "77", "replicas": 2.0})
        assert (cfg.N, cfg.seed, cfg.replicas) == (5, 77, 2)
        assert all(type(v) is int for v in (cfg.echo()["N"], cfg.echo()["seed"], cfg.echo()["replicas"]))
        cfg = config_from_dict({"kind": "constants", "family": FAMILY, "N_range": [2.0, "3"]})
        assert cfg.levels() == [2, 3]

    def test_horizon_checked_at_every_level(self):
        # 1/64 is a whole number of steps at N = 3 but not at N = 2
        config_from_dict({"kind": "constants", "family": FAMILY, "N_range": [3, 4], "T": 1 / 64})
        with pytest.raises(SchemaError, match="^T: .* level 2"):
            config_from_dict({"kind": "constants", "family": FAMILY, "N_range": [2, 3], "T": 1 / 64})
