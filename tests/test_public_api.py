import importlib

import pytest

import sbe

MODULES = ("cli", "fieldio", "grids", "heat", "kernels", "measures", "norms", "operators", "processes", "renorm", "solver")

# conveniences that nothing outside their own tests called, and internals
# replaced by another route, now gone
REMOVED = {
    "operators": ("dft", "idft"),
    "fieldio": ("field_to_csv",),
    "grids": ("mollify_noise", "_shift", "coarsen_noise"),
    "norms": ("_SPECTRA", "_SPECTRA_MAX", "_kernel_spectrum", "_space_pairing_map", "_parabolic_pairing_map"),
    "processes": (
        "singular_order_probe",
        "sample_remainder",
        "RemainderSample",
        "_READS",
        "_LAST_READS",
        "_Memo",
        "_plan_reads",
    ),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    mod = importlib.import_module(f"sbe.{name}")
    missing = [entry for entry in getattr(mod, "__all__", ()) if not hasattr(mod, entry)]
    assert not missing


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"sbe.{module}")
        for name in names:
            assert name not in sbe.__all__ and not hasattr(mod, name), f"{module}.{name}"
    assert not hasattr(sbe.HeatKernel, "kernel_column")
    assert not hasattr(sbe.SchemeConfig, "fingerprint")
    assert not hasattr(sbe.GridSpec, "coarsen")
