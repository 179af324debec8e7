"""Outside-in layer tracing for the ``sbe`` package.

``install`` wraps every function named in a layer module's ``__all__`` (the
public functions of ``sbe.cli``, which has none) and the public methods and
``__init__`` of every class named there. Each wrapper replaces the original
wherever an ``sbe.*`` module has bound it, so the program's own call pattern
is what gets timed; no file of the program changes.

Spans are appended to flat arrays in memory (kind, parent, start, end) and
written once, by ``Tracer.dump``. Hooks read counters from arguments and
return values; their cost is recorded as spans of the pseudo-layer
``trace``, so it is never charged to a program layer. With
``track_alloc`` the calls into the layers in ``PEAK_LAYERS`` run under
``tracemalloc`` and record the peak of Python and numpy allocations made
inside them; ``tracemalloc`` slows allocation-heavy code several-fold, so
the benchmark takes times and peaks from two separate traced rounds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
import weakref
from array import array

import numpy as np

from checks import block_mean_mismatch

LAYERS = (
    "measures",
    "grids",
    "operators",
    "heat",
    "renorm",
    "processes",
    "norms",
    "solver",
    "kernels",
    "fieldio",
    "cli",
)
PEAK_LAYERS = ("grids", "processes", "norms", "kernels")


class Tracer:
    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self.names: list[tuple[str, str]] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.peak_stack: list[list[int]] = []
        self.peak_bytes = {layer: 0 for layer in PEAK_LAYERS}
        self.counters: dict[str, float] = {}
        self.run_records: list[tuple[int, int, int, int]] = []  # (span, M, rows, steps)
        self.exponent_spans: list[tuple[int, str]] = []
        self.sampled: dict[int, int] = {}  # id of a sampled noise field -> cells
        self.coarsen_mismatches = 0
        self.coarsen_checked = 0
        self._hook_kind = self._kind_index("trace", "hook")

    def _kind_index(self, layer: str, name: str) -> int:
        self.names.append((layer, name))
        return len(self.names) - 1

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _open(self, kind: int) -> int:
        i = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def _peak_enter(self) -> None:
        if not self.peak_stack:
            tracemalloc.start()
        else:
            peak = tracemalloc.get_traced_memory()[1]
            for entry in self.peak_stack:
                entry[1] = max(entry[1], peak)
            tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        self.peak_stack.append([current, current])

    def _peak_exit(self, layer: str) -> None:
        current, peak = tracemalloc.get_traced_memory()
        start, high = self.peak_stack.pop()
        self.peak_bytes[layer] = max(self.peak_bytes[layer], max(high, peak) - start)
        for entry in self.peak_stack:
            entry[1] = max(entry[1], peak)
        if not self.peak_stack:
            tracemalloc.stop()

    def wrap(self, layer: str, name: str, fn, hook=None):
        kind = self._kind_index(layer, name)
        peak = self.track_alloc and layer in PEAK_LAYERS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(kind)
            if peak:
                self._peak_enter()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if peak:
                    self._peak_exit(layer)
                self.stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if hook is not None:
                h = self._open(self._hook_kind)
                h0 = clock()
                hook(self, i, args, kwargs, out)
                self.stack.pop()
                self.start[h] = h0
                self.end[h] = clock()
            return out

        return traced

    def dump(self, base: str) -> None:
        """Write the spans to ``base.npz`` and the counters to ``base.json``."""
        np.savez(
            base + ".npz",
            kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            run_records=np.array(self.run_records, dtype=np.int64).reshape(-1, 4),
        )
        meta = {
            "names": self.names,
            "counters": self.counters,
            "peak_bytes": self.peak_bytes,
            "exponent_spans": self.exponent_spans,
            "coarsen_checked": self.coarsen_checked,
            "coarsen_mismatches": self.coarsen_mismatches,
        }
        with open(base + ".json", "w") as fh:
            json.dump(meta, fh)


# ---------------------------------------------------------------------------
# hooks: counters read from arguments and return values


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _hook_sample_noise(tr: Tracer, i, args, kwargs, out):
    cells = int(out.values.size)
    tr.count("noise_cells", cells)
    key = id(out)
    tr.sampled[key] = cells
    weakref.finalize(out, tr.sampled.pop, key, None)


def _consume(tr: Tracer, noise, cells: int) -> None:
    if tr.sampled.pop(id(noise), None) is not None:
        tr.count("noise_used_cells", cells)


def _hook_run(tr: Tracer, i, args, kwargs, out):
    cfg = _arg(args, kwargs, 0, "cfg")
    u0 = np.asarray(_arg(args, kwargs, 1, "u0"))
    noise = _arg(args, kwargs, 2, "noise")
    T = _arg(args, kwargs, 3, "T")
    dt = cfg.grid.dt
    steps = int(round(out.blowup_time / dt)) if out.blowup else int(round(T / dt))
    rows = int(np.prod(u0.shape[:-1])) if u0.ndim > 1 else 1
    M = int(u0.shape[-1])
    tr.run_records.append((i, M, rows, steps))
    tr.count("steps", steps * rows)
    tr.count("escapes", int(bool(out.blowup)))
    _consume(tr, noise, steps * M)


def _hook_lift(tr: Tracer, i, args, kwargs, out):
    noise = _arg(args, kwargs, 0, "noise")
    _consume(tr, noise, int(noise.values.size))


def _hook_coarsen_noise(tr: Tracer, i, args, kwargs, out):
    fine = _arg(args, kwargs, 0, "fine").values
    tr.coarsen_checked += 1
    if block_mean_mismatch(fine, out.values):
        tr.coarsen_mismatches += 1


def _hook_estimate_exponent(tr: Tracer, i, args, kwargs, out):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "space")
    tr.exponent_spans.append((i, mode))


def _file_bytes_hook(paths_of):
    def hook(tr: Tracer, i, args, kwargs, out):
        tr.count("bytes_written", sum(os.path.getsize(p) for p in paths_of(args, kwargs, out)))

    return hook


def _write_field_paths(args, kwargs, out):
    directory = _arg(args, kwargs, 0, "directory")
    return [os.path.join(directory, name) for name in out]


def _write_csv_paths(args, kwargs, out):
    return [_arg(args, kwargs, 0, "path")]


HOOKS = {
    "sample_noise": _hook_sample_noise,
    "run": _hook_run,
    "lift": _hook_lift,
    "coarsen_noise": _hook_coarsen_noise,
    "estimate_exponent": _hook_estimate_exponent,
    "write_field": _file_bytes_hook(_write_field_paths),
    "write_csv": _file_bytes_hook(_write_csv_paths),
}


def _public_names(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is not None:
        return list(names)
    return [
        n
        for n, v in vars(mod).items()
        if not n.startswith("_") and (inspect.isfunction(v) or inspect.isclass(v)) and v.__module__ == mod.__name__
    ]


def install(tracer: Tracer) -> int:
    """Wrap the layers' public callables in place; returns how many."""
    modules = {layer: importlib.import_module(f"sbe.{layer}") for layer in LAYERS}
    replaced: dict[int, tuple[object, object]] = {}
    wrapped = 0
    for layer, mod in modules.items():
        for name in _public_names(mod):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                replaced[id(obj)] = (obj, tracer.wrap(layer, name, obj, HOOKS.get(name)))
                wrapped += 1
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                        setattr(obj, attr, tracer.wrap(layer, f"{name}.{attr}", fn))
                        wrapped += 1
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sbe" or mod_name.startswith("sbe.")):
            continue
        for attr, val in list(vars(mod).items()):
            hit = replaced.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    return wrapped


# ---------------------------------------------------------------------------
# aggregation of a dumped trace into per-layer metrics


def _load(base: str):
    with open(base + ".json") as fh:
        return np.load(base + ".npz"), json.load(fh)


def summarize(base: str, alloc_base: str) -> dict:
    """Per-layer metrics from a timing trace and an allocation trace."""
    data, meta = _load(base)
    alloc_meta = _load(alloc_base)[1]
    names = [tuple(n) for n in meta["names"]]
    kind, parent = data["kind"], data["parent"]
    dur = data["end"] - data["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(kind))
    self_time = dur - child

    layer_of = np.array([LAYERS.index(layer) if layer in LAYERS else len(LAYERS) for layer, _ in names])
    span_layer = layer_of[kind] if len(kind) else np.zeros(0, dtype=int)
    layer_self = np.bincount(span_layer, weights=self_time, minlength=len(LAYERS) + 1)
    layer_calls = np.bincount(span_layer, minlength=len(LAYERS) + 1)

    def inclusive(*funcs: str) -> float:
        idx = [k for k, (_, n) in enumerate(names) if n in funcs]
        return float(dur[np.isin(kind, idx)].sum())

    def calls(*funcs: str) -> int:
        idx = [k for k, (_, n) in enumerate(names) if n in funcs]
        return int(np.isin(kind, idx).sum())

    counters = meta["counters"]
    m = {}
    for layer in ("cli", "measures", "operators", "solver", "heat", "renorm"):
        m[f"{layer}.self_s"] = float(layer_self[LAYERS.index(layer)])
    m["grids.sample_noise_s"] = inclusive("sample_noise")
    m["grids.coarsen_s"] = inclusive("coarsen_noise", "coarsen_slice")
    cells = counters.get("noise_cells", 0)
    m["grids.noise_cells"] = int(cells)
    m["grids.noise_used_ratio"] = counters.get("noise_used_cells", 0) / cells if cells else 0.0
    m["operators.calls"] = int(layer_calls[LAYERS.index("operators")])
    m["solver.steps"] = int(counters.get("steps", 0))
    m["solver.escapes"] = int(counters.get("escapes", 0))
    runs = data["run_records"]
    for M in (32, 64, 128, 512):
        sel = runs[runs[:, 1] == M] if len(runs) else runs
        work = float((sel[:, 2] * sel[:, 3]).sum()) if len(sel) else 0.0
        m[f"solver.us_per_replica_step.M{M}"] = 1e6 * float(dur[sel[:, 0]].sum()) / work if work else 0.0
    m["processes.lift_s"] = inclusive("lift")
    m["processes.lift_calls"] = calls("lift")
    for mode in ("space", "parabolic"):
        idx = [i for i, md in meta["exponent_spans"] if md == mode]
        m[f"norms.estimate_exponent_s.{mode}"] = float(dur[idx].sum()) if idx else 0.0
    m["norms.comparison_norm_s"] = inclusive("comparison_norm")
    m["kernels.convolve_s"] = inclusive("convolve_kernels", "renormalized_convolve")
    m["kernels.order_norm_s"] = inclusive("order_norm")
    m["fieldio.write_s"] = inclusive("write_field", "write_csv")
    m["fieldio.sha256_s"] = inclusive("sha256_file")
    m["fieldio.bytes_written"] = int(counters.get("bytes_written", 0))
    for layer in PEAK_LAYERS:
        m[f"{layer}.peak_alloc_mb"] = alloc_meta["peak_bytes"][layer] / 2**20
    m["trace.spans"] = int(len(kind))
    m["trace.coarsen_checked"] = meta["coarsen_checked"] + alloc_meta["coarsen_checked"]
    m["trace.coarsen_mismatches"] = meta["coarsen_mismatches"] + alloc_meta["coarsen_mismatches"]
    return m
