"""One round of one workload, in a fresh interpreter.

Times the set-up (importing ``sbe`` and writing the workload's configs),
then calls ``sbe.cli.main`` once per experiment and times each call, in
wall time and in the process's CPU time. With
``--trace time`` the layers are wrapped first (see ``tracer``) and the
spans are written next to the result; ``--trace alloc`` also records the
``tracemalloc`` peak of each call into the layers that allocate most.
With ``--setup-only`` it stops after set-up. The result is one JSON file;
the process's own peak RSS is part of it. It is read from ``VmHWM``, not
from ``ru_maxrss``, which keeps the high-water mark of the parent the worker
was forked from.

    python3 perfbench/worker.py --workload NAME --seed S --dir DIR --result FILE --src SRC
        [--trace time|alloc] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from workloads import write_configs


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--src", required=True, help="directory the sbe package must come from")
    parser.add_argument("--trace", choices=("time", "alloc"))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import sbe.cli

    configs = write_configs(args.workload, args.seed, os.path.join(args.dir, "configs"))
    setup_s = time.perf_counter() - t0
    src = os.path.realpath(args.src)
    if not os.path.realpath(sbe.__file__).startswith(src + os.sep):
        print(f"sbe was imported from {sbe.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s, "experiments": []}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer, install

            tracer = Tracer(track_alloc=args.trace == "alloc")
            result["wrapped"] = install(tracer)
        for label, kind, path in configs:
            out_root = os.path.join(args.dir, label)
            captured = io.StringIO()
            error = None
            t, c = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(captured):
                    code = sbe.cli.main([kind, "--config", path, "--out", out_root])
            except Exception:  # noqa: BLE001 - an experiment that raises is a failed operation
                code, error = None, traceback.format_exc()
            seconds, cpu_seconds = time.perf_counter() - t, time.process_time() - c
            lines = captured.getvalue().split()
            result["experiments"].append(
                {
                    "label": label,
                    "kind": kind,
                    "config": path,
                    "exit_code": code,
                    "seconds": seconds,
                    "cpu_seconds": cpu_seconds,
                    "outdir": lines[-1] if lines else None,
                    "error": error,
                }
            )
        if tracer is not None:
            tracer.dump(os.path.join(args.dir, "spans"))
    result["peak_rss_mb"] = peak_rss_mb()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
