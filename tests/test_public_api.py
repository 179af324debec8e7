import ast
import functools
import importlib
import inspect
import pathlib

import pytest

import sbe

MODULES = ("cli", "fieldio", "grids", "heat", "kernels", "measures", "norms", "operators", "processes", "renorm", "solver")
# the modules that declare __all__ (cli has no public names)
LIBRARY = tuple(name for name in MODULES if name != "cli")
ROOT = pathlib.Path(__file__).resolve().parent.parent

# conveniences that nothing outside their own tests called, internals
# replaced by another route, the kernel calculus and mollifier that no
# experiment ran, its DiscreteKernel wrapper, the heat-kernel memory
# bound of a field no longer held, and the heat kernel's whole-field
# readers and the CLI's file parser and kind tuple, which only tests read,
# now gone; the remainders live on in tests/oracles.py, the continuum
# constant and its bump in tests/test_renorm.py
REMOVED = {
    "cli": ("parse_config", "EXPERIMENT_KINDS"),
    "operators": ("dft", "idft", "time_convolve", "_time_length", "_time_spectrum", "_convolve_spectrum"),
    "fieldio": ("field_to_csv",),
    "grids": (
        "mollify_noise",
        "_shift",
        "coarsen_noise",
        "mollify",
        "_mollifier_kernel",
        "bump",
        "noise_stream",
        "noise_block",
    ),
    "heat": ("KernelSplit", "signed_torus_coordinate", "heat_kernel_bytes", "BoundsDiagnostic"),
    "kernels": (
        "twisted_kernel_product",
        "_pad_match",
        "convolve_kernels",
        "renormalized_convolve",
        "increment_bound_probe",
        "mollification_loss_probe",
        "PROBE_PAIRS",
        "_spacetime_convolve",
        "_first_operand",
        "_finish_with",
        "_renormalized",
        "kernel_mass",
        "_znorm_eps",
        "DiscreteKernel",
    ),
    "norms": ("_SPECTRA", "_SPECTRA_MAX", "_kernel_spectrum", "_space_pairing_map", "_parabolic_pairing_map"),
    "processes": (
        "singular_order_probe",
        "sample_remainder",
        "RemainderSample",
        "_READS",
        "_LAST_READS",
        "_Memo",
        "_plan_reads",
        "TreeProcessSet",
        "remainder_r21",
        "remainder_r1222",
        "_twisted_at",
    ),
    "renorm": (
        "c2_continuum_mollified",
        "_bump_rule",
        "_bump_profile_ft",
        "_bump_exp_moment_shifted",
        "BUMP_NODES",
        "CONTINUUM_HORIZON",
    ),
    "solver": ("_noise_blocks",),
}

# public names that neither the library nor the acceptance criteria load, and why they stay
KEPT = {
    "fieldio": {"read_field": "the one reader of the format that write_field writes"},
    "norms": {
        "holder_norm_parabolic": "a Hoelder-Besov estimator of the paper",
        "besov_norm_negative": "a Hoelder-Besov estimator of the paper",
        "comparison_norm": "a Hoelder-Besov estimator of the paper, the one-pair form of the convergence study's",
    },
    "solver": {"step_forward": "the scheme's one-step entry point: run's held step, prepared for a single call"},
}

# private module-level functions and classes that no library module reads, and why they stay
PRIVATE_KEPT: dict[str, str] = {}


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    mod = importlib.import_module(f"sbe.{name}")
    missing = [entry for entry in getattr(mod, "__all__", ()) if not hasattr(mod, entry)]
    assert not missing


def test_removed_names_are_gone(fam_bw_ss):
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"sbe.{module}")
        for name in names:
            assert name not in sbe.__all__ and not hasattr(sbe, name) and not hasattr(mod, name), f"{module}.{name}"
    assert not hasattr(sbe.HeatKernel, "kernel_column")
    assert not hasattr(sbe.HeatKernel, "split")
    # the passes the program runs are the kernel's block generators; tests
    # stack their blocks, and the explicit step is laplacian's
    for method in ("columns", "singular_part", "step", "verify_bounds"):
        assert not hasattr(sbe.HeatKernel, method), method
    # a study is read by its fields, not unpacked
    with pytest.raises(TypeError, match="not iterable"):
        iter(sbe.solver.ConvergenceStudy(per_pair={}, rows=[], dropped=[], escape_times=[]))
    # the kernel keeps no rows between calls
    assert not hasattr(sbe.HeatKernel(sbe.GridSpec(3, 0.25), fam_bw_ss), "_columns")
    assert not hasattr(sbe.SchemeConfig, "fingerprint")
    assert not hasattr(sbe.GridSpec, "coarsen")
    # NoiseField.blocks is the one place that tells explicit noise from streamed
    assert not hasattr(sbe.NoiseField, "streamed")
    assert "mode" not in inspect.signature(sbe.lift).parameters
    # lift's one time convolution is its own recurrence on the stepping multiplier
    processes = importlib.import_module("sbe.processes")
    assert not hasattr(processes, "time_convolve") and not hasattr(processes, "HeatKernel")


def _loaded_names(tree: ast.AST) -> set:
    """Every name the code reads: bare names and attributes in load context."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


@functools.cache
def _library() -> tuple[dict, dict]:
    """The parsed modules of src/sbe, and the names each reads."""
    sources = {path.stem: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "sbe").glob("*.py"))}
    return sources, {stem: _loaded_names(tree) for stem, tree in sources.items()}


def _library_reads(module: str, name: str) -> bool:
    """True when a module of src/sbe reads module's name outside its own definition."""
    sources, loaded = _library()
    if any(name in loaded[stem] for stem in loaded if stem != module):
        return True
    own = [
        node
        for node in sources[module].body
        if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
    ]
    return name in _loaded_names(ast.Module(body=own, type_ignores=[]))


def test_every_public_name_has_a_caller():
    # a public name stays only while the library reads it outside its own
    # definition, an acceptance criterion reads it, or KEPT says why
    acceptance = _loaded_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    unreached = []
    for module in LIBRARY:
        public = importlib.import_module(f"sbe.{module}").__all__
        kept = KEPT.get(module, {})
        assert set(kept) <= set(public), module
        for name in public:
            if not (name in kept or name in acceptance or _library_reads(module, name)):
                unreached.append(f"{module}.{name}")
    assert not unreached, f"public names with no caller: {', '.join(unreached)}"


def test_every_private_helper_has_a_library_reader():
    # a private module-level function or class stays only while the library
    # reads it outside its own definition, or PRIVATE_KEPT says why; one
    # that only tests call belongs in tests/oracles.py
    unread = [
        f"{module}.{node.name}"
        for module, tree in _library()[0].items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not _library_reads(module, node.name)
    ]
    assert sorted(unread) == sorted(PRIVATE_KEPT), f"private helpers no library module reads: {', '.join(unread)}"


def test_cli_imports_no_private_library_name():
    # the front end parses, dispatches and writes: what it needs of a kind
    # the library offers under a public name (dunders such as __version__ aside)
    private = [
        alias.name
        for node in ast.walk(ast.parse((ROOT / "src" / "sbe" / "cli.py").read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "sbe")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not private, f"cli imports private library names: {', '.join(private)}"


def _oracle_reads(tree: ast.AST) -> set:
    """The names a test module imports from tests/oracles.py and reads."""
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "oracles"
        for alias in node.names
    }
    return {imported[name] for name in _loaded_names(tree) & imported.keys()}


def test_every_oracle_has_a_test_reader():
    # a top-level function, class or constant of tests/oracles.py stays only
    # while a test module reads it, or an oracle that a test module reads does
    oracles = {}
    for node in ast.parse((ROOT / "tests" / "oracles.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            oracles[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            oracles.update((target.id, node) for target in targets if isinstance(target, ast.Name))
    modules = sorted((ROOT / "tests").glob("*.py"))
    reached = set().union(*(_oracle_reads(ast.parse(path.read_text())) for path in modules if path.stem != "oracles"))
    frontier = list(reached)
    while frontier:
        found = (_loaded_names(oracles[frontier.pop()]) & oracles.keys()) - reached
        reached |= found
        frontier += found
    assert not oracles.keys() - reached, f"oracles no test reads: {', '.join(sorted(oracles.keys() - reached))}"


# the complex transforms that stay: kernels' time FFTs act on complex
# half-spectra, and the twisted Parseval identity needs both k and -k;
# every real field goes through rfft and irfft
COMPLEX_FFT_CALLERS = {
    ("kernels", "_convolved"),
    ("operators", "check_parseval_twisted"),
}


def test_complex_ffts_only_where_a_spectrum_is_complex():
    callers = {
        (module, getattr(top, "name", None))
        for module, tree in _library()[0].items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("fft", "ifft")
    }
    assert callers == COMPLEX_FFT_CALLERS
