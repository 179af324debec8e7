import csv
import dataclasses
import json
import math
import os
from pathlib import Path

import pytest

import numpy as np

from conftest import count_rows, same_bits, traced_peak
from sbe import cli, norms, processes, solver
from sbe.cli import (
    EXPERIMENT_KINDS,
    KINDS,
    SchemaError,
    config_from_dict,
    family_from_config,
    main,
    parse_config,
    run_experiment,
)
from sbe.fieldio import read_field, sha256_file
from sbe.grids import GridSpec, LatticeField, sample_noise
from sbe.heat import HeatKernel
from sbe.kernels import square_check_bytes
from sbe.norms import estimate_exponent, regularity_bytes, regularity_families
from sbe.processes import TREE_LABELS, lift, lift_chunk_bytes, lift_chunks
from sbe.renorm import compute_constants
from sbe.solver import SchemeConfig, ic_white_noise, run

FAMILY = {"nu": "laplacian-nn", "pi": "deriv-backward", "mu": "product-sasamoto-spohn"}
# the coarsest level each kind that applies stencils accepts for FAMILY at T = 1/4
COARSEST = {"simulate": 2, "convergence": 2, "processes": 2, "regularity": 6}


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

    def test_guard_names_the_field_holding_the_level(self):
        with pytest.raises(SchemaError, match=r"^N_range: level 14 outside 1\.\.10 \(desk-scale guard\)"):
            config_from_dict({"kind": "constants", "family": FAMILY, "N_range": [5, 14]})
        with pytest.raises(SchemaError, match=r"^T: .* at level 2$"):
            config_from_dict({"kind": "constants", "family": FAMILY, "N_range": [2, 5], "T": 1 / 64})

    def test_levels_a_run_does_not_read_are_not_checked(self):
        # a one-level kind reads N alone: a level beyond the guard, or one
        # the horizon is no whole number of steps at, in N_range is let be
        cfg = config_from_dict({"kind": "simulate", "family": FAMILY, "N": 5, "N_range": [14]})
        assert [grid.N for grid in KINDS["simulate"].grids(cfg)] == [5]
        config_from_dict({"kind": "simulate", "family": FAMILY, "N": 5, "N_range": [2], "T": 1 / 64})
        # and N_range replaces N for the others
        cfg = config_from_dict({"kind": "constants", "family": FAMILY, "N": 14, "N_range": [5, 6]})
        assert cfg.levels() == [5, 6]

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

    # sha256 of replica 0's trees and of the summary at N = 5, T = 0.25, seed
    # 21, 2 replicas: the bytes the whole-field lift wrote
    PROCESSES_DIGESTS = {
        "tree_T1.bin": "cc5dbb03258e2558c62f08de4f07d999cb4b7e39c9969fb02556f9b2d2588fa3",
        "tree_T2.bin": "47641f1992e6ba703a48315c9d050d62f0dfb61804fe2622c38d27a03d501c11",
        "tree_T11.bin": "68719df16a27e4fcfe22409615ec0b5bc6da5a9523e28cccbd954db8ccfc3eba",
        "tree_T21.bin": "1fdbcfb857c12765291263e47fd4ac388ec5c64f77c35a523f2b19401afee610",
        "tree_T12.bin": "5d877135013088bebac219e6ec41c3b9b244018739bb179d8a5f3230583890cd",
        "tree_T22.bin": "9c35c1d960e16c8945167fd10724ee3deb983d3b551d559284cebadf8a3ed73d",
        "tree_T122.bin": "60fed38760afc30abc8d11040d20a93c4618ac1e47c0da327fbc975240a29f7a",
        "tree_T124.bin": "1e033614008ebb3c09ec3b13114c789f0b92edaed82a123949cae8c5793ed824",
        "tree_T1222.bin": "d261bfe1e6566fde1f1b5491a8d84a4fe337733b5d8059858b4ac7abe5c925d7",
        "tree_T1.json": "ae8cd7a1a68bd0a386df41a501cc439dc85b9867daf4d606ed1cf04e323a9357",
        "mc_summary.csv": "1f91902253bb6af0133678427bc54a05010d95c7be7d60d803ef15e73e51f626",
    }

    @pytest.mark.parametrize("blocks", [None, 3], ids=["one-chunk", "six-chunks"])
    def test_processes_trees_keep_their_bytes(self, tmp_path, monkeypatch, blocks):
        # 16 blocks of 16 rows: one chunk, or five of 3 blocks and one of 1
        if blocks:
            monkeypatch.setattr(processes, "_CHUNK_BYTES", blocks * 16 * 17 * 16)
        cfg = config_from_dict({"kind": "processes", "family": FAMILY, "N": 5, "T": 0.25, "seed": 21, "replicas": 2})
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        for name, digest in self.PROCESSES_DIGESTS.items():
            assert sha256_file(os.path.join(bundle.directory, name)) == digest, name

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

        monkeypatch.setattr(solver, "sample_noise", refuse, raising=False)  # intercepts any call run would make
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

    def test_heat_kernel_makes_each_row_of_p_once(self, tmp_path, monkeypatch):
        # kernel.bin and the three decay bounds read the same blocks
        made = count_rows(monkeypatch)
        cfg = config_from_dict({"kind": "heat-kernel", "family": FAMILY, "N": 5, "T": 0.125})
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        assert made == [GridSpec(5, 0.125).n_steps + 1]
        quantities = [line.split(",")[0] for line in Path(bundle.directory, "heat_kernel.csv").read_text().splitlines()]
        assert quantities[-3:] == ["decay_bound_sup_j0", "decay_bound_sup_j1", "decay_bound_sup_j2"]

    def test_heat_kernel_writes_p_and_its_diagnostics_block_by_block(self, tmp_path):
        # 1023 rows in several blocks: the residual's rows 511, 512 and 1023
        # are kept from different blocks, kernel.bin is P bit for bit and
        # the decay bounds' sups are the maxima over every block
        grid = GridSpec(5, 1023 / 1024)
        cfg = config_from_dict({"kind": "heat-kernel", "family": FAMILY, "N": grid.N, "T": grid.T})
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        P = HeatKernel(grid, family_from_config(FAMILY)).columns(grid.n_steps)
        written, meta = read_field(bundle.directory, "kernel")
        assert same_bits(written, P) and meta["shape"] == [grid.n_steps + 1, grid.M]
        with open(os.path.join(bundle.directory, "heat_kernel.csv")) as fh:
            got = {row["quantity"]: float(row["value"]) for row in csv.DictReader(fh)}
        conv = grid.eps * np.fft.irfft(np.fft.rfft(P[511]) * np.fft.rfft(P[512]), n=grid.M)
        assert got["semigroup_residual"] == float(np.max(np.abs(conv - P[1023])))
        assert got["mass_max_error"] == float(np.max(np.abs(grid.eps * P.sum(axis=1) - 1.0)))
        for diag in HeatKernel(grid, family_from_config(FAMILY)).verify_bounds(grid.T):
            assert got[f"decay_bound_sup_j{diag.j}"] == diag.sup

    def test_heat_kernel_holds_no_field(self, tmp_path):
        # P at N = 8, T = 1/4 is 33.6 MB; the run holds a few blocks of it
        # and its per-time arrays
        grid = GridSpec(8, 0.25)
        cfg = config_from_dict({"kind": "heat-kernel", "family": FAMILY, "N": grid.N, "T": grid.T})
        _, peak = traced_peak(lambda: run_experiment(cfg, out_root=str(tmp_path)))
        assert peak < 8 * (grid.n_steps + 1) * grid.M / 4

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

    @pytest.mark.parametrize(
        "exc, line", [(MemoryError(), "MemoryError"), (KeyError("T2"), "KeyError: 'T2'")], ids=["memory", "key"]
    )
    def test_runtime_error_names_its_cause(self, tmp_path, capsys, monkeypatch, exc, line):
        def fails(cfg, fam, grids, outdir):
            raise exc

        monkeypatch.setitem(cli.KINDS, "constants", dataclasses.replace(cli.KINDS["constants"], run=fails))
        path = write_config(tmp_path, {"family": FAMILY, "N": 5, "T": 0.125})
        assert main(["constants", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert f"runtime error: {line}\n" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "bad, field",
        [
            ({"replica": 50}, "replica"),
            ({"initial": {"kind": "constant", "valu": 3}}, "initial.valu"),
            ({"family": dict(FAMILY, muu="product-pointwise")}, "family.muu"),
        ],
        ids=["top-level", "initial", "family"],
    )
    def test_unknown_field_named(self, tmp_path, capsys, bad, field):
        # a misspelt field would otherwise leave its default in force: one
        # replica for "replica", a start from 0 for "valu"
        path = write_config(tmp_path, dict({"family": FAMILY, "N": 5, "T": 0.125}, **bad))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert f"config error: {field}: unknown field, expected one of " in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_is_no_path(self, tmp_path, capsys):
        # refused as a config even where --out would take its place
        path = write_config(tmp_path, {"family": FAMILY, "N": 5, "T": 0.125, "out": 5})
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert "config error: out: expected a directory path, got 5\n" in capsys.readouterr().err
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

    @pytest.mark.parametrize("kind", ["regularity", "processes"])
    def test_lifts_beyond_the_memory_available(self, tmp_path, capsys, monkeypatch, kind):
        # both hold a few chunks of the lift and no field, regularity also its
        # two parabolic plans
        grid = GridSpec(8, 0.125)
        need = regularity_bytes(grid, regularity_families(grid)[1]) if kind == "regularity" else lift_chunk_bytes(grid)
        monkeypatch.setattr(cli, "_memory_available", lambda: need - 1)
        path = write_config(tmp_path, {"family": FAMILY, "N": 8, "T": 0.125})
        out = tmp_path / "out"
        assert main([kind, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: N: level 8 at T=0.125 needs about {need / 1e9:.2f} GB for the {kind} lifts" in err
        assert not out.exists()
        for budget in (need, None):  # an unreadable budget refuses nothing
            monkeypatch.setattr(cli, "_memory_available", lambda: budget)
            assert config_from_dict({"kind": kind, "family": FAMILY, "N": 8, "T": 0.125}).N == 8

    def test_heat_kernel_runs_beyond_the_memory_available(self, tmp_path, monkeypatch):
        # it writes P a block of rows at a time, so no budget refuses it:
        # here 1 kB against P's 16.8 MB
        monkeypatch.setattr(cli, "_memory_available", lambda: 1000)
        path = write_config(tmp_path, {"family": FAMILY, "N": 8, "T": 0.125})
        assert main(["heat-kernel", "--config", path, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize(
        "kind, bad, field",
        # every one-level kind refuses N_range alone
        [pytest.param(kind, {"N_range": [5]}, "N", id=kind) for kind, spec in KINDS.items() if spec.one_level]
        + [
            pytest.param("simulate", {"N": 14, "N_range": [5]}, "N", id="N-beside-N_range"),
            pytest.param("convergence", {"N_range": [5, 6]}, "N_range", id="two-levels"),
            pytest.param("convergence", {"N_range": [5, 5, 6]}, "N_range", id="repeated-level"),
            pytest.param("kernel-diagnostics", {"N_range": [5, 5]}, "N_range", id="kernel-diagnostics-repeated-level"),
            pytest.param("constants", {"N_range": [6, 5, 6]}, "N_range", id="constants-repeated-level"),
            pytest.param(
                "simulate", {"N": 5, "initial": {"kind": "constant", "value": "x"}}, "initial.value", id="initial-value"
            ),
        ],
    )
    def test_level_and_initial_value_checked_first(self, tmp_path, capsys, kind, bad, field):
        path = write_config(tmp_path, dict({"family": FAMILY, "T": 0.125}, **bad))
        out = tmp_path / "out"
        assert main([kind, "--config", path, "--out", str(out)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, levels, mu, message",
        [
            ("simulate", {"N": 1}, FAMILY["mu"], "N: level 1 is too coarse for simulate (measure radius 1 wraps"),
            ("processes", {"N": 1}, FAMILY["mu"], "N: level 1 is too coarse for processes (measure radius 1 wraps"),
            ("regularity", {"N": 6}, {"atoms": [[32, 32, 1.0]]}, "N: level 6 is too coarse for regularity (measure"),
            (
                "convergence",
                {"N_range": [2, 3, 4]},
                {"atoms": [[2, 2, 1.0]]},
                "N_range: level 2 is too coarse for convergence (measure radius 2 wraps",
            ),
            (
                "convergence",
                {"N_range": [1, 2, 3]},
                FAMILY["mu"],
                "N_range: level 1 is too coarse for convergence (need at least two scales)",
            ),
        ],
        ids=["simulate", "processes", "regularity", "convergence", "convergence-scales"],
    )
    def test_level_too_coarse_for_the_family(self, tmp_path, capsys, kind, levels, mu, message):
        # a stencil that wraps the torus, or a study with one comparison scale
        path = write_config(tmp_path, dict({"family": dict(FAMILY, mu=mu), "T": 0.25}, **levels))
        out = tmp_path / "out"
        assert main([kind, "--config", path, "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_the_records_are_pinned(self):
        # the tests that draw their kinds from KINDS cannot shrink silently:
        # a record that drops a stencil, its level rule or its need fails here
        table = {
            kind: (spec.one_level, spec.consecutive, spec.stencils, spec.check is not None, spec.need is not None)
            for kind, spec in KINDS.items()
        }
        assert table == {
            "validate": (False, 0, (), False, False),
            "constants": (False, 0, (), False, False),
            "heat-kernel": (True, 0, (), False, False),
            "simulate": (True, 0, ("nu", "pi", "mu"), False, False),
            "processes": (True, 0, ("mu",), False, True),
            "regularity": (True, 0, ("mu",), True, True),
            "convergence": (False, 3, ("nu", "pi", "mu"), True, False),
            "kernel-diagnostics": (False, 0, (), False, True),
        }
        assert {kind: spec.horizon for kind, spec in KINDS.items() if spec.horizon != math.inf} == {
            "kernel-diagnostics": 0.25
        }

    @pytest.mark.parametrize("measure", ["nu", "pi"])
    @pytest.mark.parametrize("kind", [kind for kind, spec in KINDS.items() if spec.stencils])
    def test_only_the_stencils_a_kind_applies_are_checked(self, tmp_path, capsys, kind, measure):
        # nu or pi reaching 32 sites wraps the 64-site torus of level 6; the
        # scheme applies both, the lifts only mu (nu and pi through their spectra)
        wide = {
            "nu": {"atoms": [[-32, 1 / 2048], [-1, 0.5], [0, -1.0009765625], [1, 0.5], [32, 1 / 2048]]},
            "pi": {"atoms": [[-32, -1 / 64], [32, 1 / 64]]},
        }
        levels = {"N_range": [6, 7, 8]} if kind == "convergence" else {"N": 6}
        path = write_config(tmp_path, dict({"family": dict(FAMILY, **{measure: wide[measure]}), "T": 0.25}, **levels))
        out = tmp_path / "out"
        if measure not in KINDS[kind].stencils:
            assert main([kind, "--config", path, "--out", str(out)]) == 0
            return
        assert main([kind, "--config", path, "--out", str(out)]) == 2
        field = next(iter(levels))
        message = f"{field}: level 6 is too coarse for {kind} (measure radius 32 wraps on M=64 torus)"
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", [kind for kind, spec in KINDS.items() if "mu" in spec.stencils])
    def test_a_stencil_reaching_half_the_torus_wraps(self, kind):
        # mu reaches 32 sites: 32 >= 64 / 2 wraps at level 6, 32 < 128 / 2 fits at level 7
        family = dict(FAMILY, mu={"atoms": [[32, 32, 1.0]]})
        for N, fits in ((6, False), (7, True)):
            raw = {"kind": kind, "family": family, "T": 0.25}
            raw.update({"N_range": [N, N + 1, N + 2]} if kind == "convergence" else {"N": N})
            if fits:
                assert config_from_dict(raw).levels()[0] == N
            else:
                with pytest.raises(SchemaError, match=f"level {N} is too coarse for {kind} \\(measure radius 32 wraps"):
                    config_from_dict(raw)

    @pytest.mark.parametrize(
        "kind, coarsest", [(kind, COARSEST[kind]) for kind, spec in KINDS.items() if spec.stencils]
    )
    def test_the_coarsest_level_accepted_runs(self, tmp_path, kind, coarsest):
        # the refusals take no level that runs: one level coarser is refused
        # before the output directory exists, the coarsest accepted one runs
        def config(N):
            levels = {"N_range": [N, N + 1, N + 2]} if kind == "convergence" else {"N": N}
            return write_config(tmp_path, dict({"family": FAMILY, "T": 0.25, "replicas": 2}, **levels))

        out = tmp_path / "out"
        assert main([kind, "--config", config(coarsest - 1), "--out", str(out)]) == 2
        assert not out.exists()
        assert main([kind, "--config", config(coarsest), "--out", str(out)]) == 0

    @pytest.mark.parametrize("kind", [kind for kind, spec in KINDS.items() if not spec.stencils])
    def test_stencil_free_kinds_run_at_level_one(self, tmp_path, kind):
        path = write_config(tmp_path, {"family": FAMILY, "N": 1, "T": 0.25})
        assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == 0

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

    def test_regularity_exponents_are_those_of_full_lifts(self, tmp_path, capsys, monkeypatch):
        # every replica goes through one lift_chunks call on its streamed
        # noise, in chunks of three blocks, and folds T2 and the noise into
        # its parabolic estimates a chunk at a time: no lift, no sample_noise
        # and no chunk as tall as a field; the table must be that of
        # estimate_exponent on whole-field lifts and noise
        seed, replicas = 11, 2
        grid = GridSpec(6, 0.0625)
        calls, heights = [], []

        def chunks(noise, *args, **kwargs):
            calls.append(noise.seed)
            with pytest.raises(ValueError, match="holds no values"):
                noise.values
            for span, chunk in lift_chunks(noise, *args, **kwargs):
                heights.append(max(values.shape[0] for values in chunk.values()))
                yield span, chunk

        def refuse(*args, **kwargs):
            raise AssertionError("regularity built a whole field")

        monkeypatch.setattr(processes, "_CHUNK_BYTES", 3 * 16 * (grid.M // 2 + 1) * 16)
        monkeypatch.setattr(norms, "lift_chunks", chunks)
        for name in ("lift", "sample_noise"):
            monkeypatch.setattr(norms, name, refuse, raising=False)  # intercepts any call the table would make
        path = write_config(tmp_path, {"family": FAMILY, "N": 6, "T": 0.0625, "seed": seed, "replicas": replicas})
        assert main(["regularity", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert calls == [seed, seed + 1]
        assert len(heights) == replicas * 6 and max(heights) == 3 * 16 + 1
        monkeypatch.undo()
        with open(os.path.join(capsys.readouterr().out.strip(), "exponents.csv")) as fh:
            got = {row["target"]: row for row in csv.DictReader(fh)}
        fam = family_from_config(FAMILY)
        consts = compute_constants(fam, grid)
        tf_space, tf_para = regularity_families(grid)
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
        # every replica goes through one lift_chunks call on its streamed
        # noise, replica 0 with every tree in full and written a chunk at a
        # time, the later ones with every tree at the last slice only; the
        # summary and the written trees must not move
        seed, replicas = 21, 3
        calls = []

        def chunks(noise, *args, **kwargs):
            calls.append((noise.seed, kwargs.get("last", ())))
            with pytest.raises(ValueError, match="holds no values"):
                noise.values
            return lift_chunks(noise, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("processes called lift")

        monkeypatch.setattr(processes, "lift", refuse)
        monkeypatch.setattr(processes, "lift_chunks", chunks)
        path = write_config(tmp_path, {"family": FAMILY, "N": 5, "T": 0.25, "seed": seed, "replicas": replicas})
        assert main(["processes", "--config", path, "--out", str(tmp_path / "out")]) == 0
        monkeypatch.undo()  # the reference lifts below go through lift_chunks unpatched
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
        assert calls == [(seed, ()), (seed + 1, TREE_LABELS), (seed + 2, TREE_LABELS)]

    def test_processes_streams_every_replica_s_noise(self, tmp_path, monkeypatch):
        def refuse(grid, seed):
            raise AssertionError("processes drew a whole noise field")

        monkeypatch.setattr(processes, "sample_noise", refuse, raising=False)  # any call mc_summary would make
        cfg = config_from_dict({"kind": "processes", "family": FAMILY, "N": 5, "T": 0.25, "seed": 21, "replicas": 2})
        bundle = run_experiment(cfg, out_root=str(tmp_path))
        for name, digest in TestExperiments.PROCESSES_DIGESTS.items():
            assert sha256_file(os.path.join(bundle.directory, name)) == digest, name

    def test_processes_holds_no_noise_field(self, tmp_path):
        # two replicas at N = 7, T = 1 stay below one noise field plus
        # lift_chunk_bytes, indeed below lift_chunk_bytes alone, all that
        # the memory check counts for processes
        grid = GridSpec(7, 1.0)
        cfg = config_from_dict({"kind": "processes", "family": FAMILY, "N": grid.N, "T": grid.T, "seed": 5, "replicas": 2})
        _, peak = traced_peak(lambda: run_experiment(cfg, out_root=str(tmp_path)))
        assert peak < lift_chunk_bytes(grid)

    def test_regularity_replica_peaks_within_its_estimate(self, tmp_path, monkeypatch):
        # one replica at N = 7 from its streamed noise, with 256 KiB chunks:
        # the traced peak of the whole run stays within regularity_bytes, all
        # that the memory check counts, flat when the horizon quadruples
        # (4096 -> 16384 rows), and under half a field at the longer one
        monkeypatch.setattr(processes, "_CHUNK_BYTES", 1 << 18)
        peaks = []
        for T in (0.25, 1.0):
            grid = GridSpec(7, T)
            cfg = config_from_dict({"kind": "regularity", "family": FAMILY, "N": 7, "T": T, "seed": 5})
            _, peak = traced_peak(lambda: run_experiment(cfg, out_root=str(tmp_path)))
            assert peak <= regularity_bytes(grid, regularity_families(grid)[1]), T
            peaks.append(peak)
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < (grid.n_steps + 1) * grid.M * 8 / 2
        # at N = 10, T = 1/4 the estimate counts no field: 0.11 GB against 2.15
        grid = GridSpec(10, 0.25)
        assert regularity_bytes(grid, regularity_families(grid)[1]) < 0.12e9 < (grid.n_steps + 1) * grid.M * 8

    @pytest.mark.parametrize("N", [7, 8])
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_memory_need_bounds_the_traced_peak_within_four_times(self, tmp_path, kind, N):
        # every kind whose record has a memory need: the need that the
        # refusal reads is a true bound of the run's traced peak, and no gross
        # overcount that would refuse sizes that fit; a first run at N = 6
        # imports the modules the kind reads, which are not the run's to count
        def config(n):
            levels = {"N_range": [n - 2, n - 1, n]} if kind == "convergence" else {"N": n}
            return config_from_dict(dict({"kind": kind, "family": FAMILY, "T": 0.25, "seed": 5}, **levels))

        spec, cfg = KINDS[kind], config(N)
        if spec.need is None:
            return
        run_experiment(config(6), out_root=str(tmp_path))
        need, _ = spec.need(spec.grids(cfg)[-1])
        _, peak = traced_peak(lambda: run_experiment(cfg, out_root=str(tmp_path)))
        assert peak <= need <= 4 * peak

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
