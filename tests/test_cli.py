import json
import os

import pytest

from sbe.cli import (
    EXPERIMENT_KINDS,
    SchemaError,
    config_from_dict,
    family_from_config,
    main,
    parse_config,
    run_experiment,
)
from sbe.fieldio import sha256_file

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
        echoed = json.load(open(os.path.join(bundle.directory, "manifest.json")))["config"]
        again = config_from_dict({k: v for k, v in echoed.items() if v is not None})
        assert again == cfg


class TestExperiments:
    def test_validate_ok_exit_zero(self, tmp_path):
        cfg = config_from_dict({"kind": "validate", "family": FAMILY, "N": 5, "T": 0.125})
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        assert bundle.exit_code == 0
        report = json.load(open(os.path.join(bundle.directory, "validation.json")))
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
        rows = open(os.path.join(bundle.directory, "constants.csv")).read().splitlines()
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
        manifest = json.load(open(os.path.join(bundle.directory, "run.json")))
        assert manifest["blowup"] and "blowup_time" in manifest

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
        manifest = json.load(open(os.path.join(bundle.directory, "manifest.json")))
        assert manifest["config"]["initial"] == {"kind": "zero"}
        assert manifest["initial_condition"].startswith("white-noise") and "ignored" in manifest["initial_condition"]
        dropped = manifest["dropped_replicas"]
        escapes = manifest["escape_times"]
        assert dropped and dropped == sorted(set(dropped)) and set(dropped) <= set(range(12))
        assert len(escapes) == 12 and all(t is None or 0.0 < t <= 0.0625 for t in escapes)
        assert any(t is not None for t in escapes)
        rows = open(os.path.join(bundle.directory, "medians.csv")).read().splitlines()[1:]
        assert [int(row.split(",")[-1]) for row in rows] == [12 - len(dropped)] * 2

    def test_manifest_lists_every_file(self, tmp_path):
        cfg = config_from_dict({"kind": "heat-kernel", "family": FAMILY, "N": 5, "T": 0.125})
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        manifest = json.load(open(os.path.join(bundle.directory, "manifest.json")))
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
        for entry in json.load(open(os.path.join(a.directory, "manifest.json")))["files"]:
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
        assert json.load(open(run_dir / "manifest.json"))["config"]["seed"] == 5

        path2 = write_config(tmp_path, {"family": FAMILY, "N": 4, "T": 0.125, "seed": 3}, "c2.json")
        out = str(tmp_path / "o2")
        assert main(["processes", "--config", path2, "--seed", "5", "--out", out]) == 0
        run_dir = next(p for p in (tmp_path / "o2").iterdir())
        assert json.load(open(run_dir / "manifest.json"))["config"]["seed"] == 3

        out = str(tmp_path / "o3")
        assert main(["processes", "--config", path, "--out", out]) == 0
        run_dir = next(p for p in (tmp_path / "o3").iterdir())
        assert json.load(open(run_dir / "manifest.json"))["config"]["seed"] == 77

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

    def test_horizon_checked_at_every_level(self):
        # 1/64 is a whole number of steps at N = 3 but not at N = 2
        config_from_dict({"kind": "constants", "family": FAMILY, "N_range": [3, 4], "T": 1 / 64})
        with pytest.raises(SchemaError, match="^T: .* level 2"):
            config_from_dict({"kind": "constants", "family": FAMILY, "N_range": [2, 3], "T": 1 / 64})
