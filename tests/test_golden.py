"""The bytes of every experiment kind, pinned.

``golden.json`` maps each kind of ``cli.KINDS`` to one small config, the
sha256 of every data file its run writes, and the manifest's keys without
``wall_time_s``. A change that moves an output's bits on purpose rewrites
the rows it moves; a kind without a row fails.
"""

import json
import os
import pathlib

import pytest

from sbe.cli import KINDS, config_from_dict, run_experiment
from sbe.fieldio import sha256_file

GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent / "golden.json").read_text())


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_kind_writes_its_pinned_bytes(tmp_path, kind):
    assert kind in GOLDEN, f"{kind}: no row in golden.json"
    assert set(GOLDEN) <= set(KINDS), f"rows of no kind: {', '.join(sorted(set(GOLDEN) - set(KINDS)))}"
    row = GOLDEN[kind]
    bundle = run_experiment(config_from_dict(row["config"], kind=kind), out_root=str(tmp_path))
    assert {name: sha256_file(os.path.join(bundle.directory, name)) for name in bundle.files} == row["sha256"]
    assert sorted(bundle.manifest.keys() - {"wall_time_s"}) == row["manifest_keys"]
