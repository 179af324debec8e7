"""Benchmark of the sbe toolkit: CLI experiments timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each round of a workload runs in a fresh worker process (see
``worker.py``), one at a time, with every BLAS/OpenMP thread variable set
to 1. The benchmark pins itself, and with it every worker, to one CPU.
Outputs go to a temporary directory under ``.perfbench_tmp/`` in the
checkout, which is removed at the end.

``--trace 0`` repeats whole rounds while another round still fits in
``--seconds`` (at least one) and reports the end-to-end metrics: the median
set-up time over at least ``SETUP_SAMPLES`` workers that only set up
(``PROBES_PER_SLOT`` before the first round and after each round), the median
over rounds of the round's CPU time divided by the median CPU time of the
reference kernel sampled while the round ran (``cpu_ref``, see
``reference.py``), and the median worker peak RSS. ``--trace 1`` runs three
rounds on the same configs: untraced, traced for time and traced for
allocation peaks. It reports the per-layer metrics of the traced rounds
and requires all three rounds' output files to be byte-identical.

Every experiment is one operation. It fails if it raises, exits with code
1 or 2 (3, blow-up truncated, is data) or fails a check in ``checks.py``.
The self-test damages the first round's outputs and requires every check
to notice. The last line of standard output is the result JSON.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from checks import read_csv, run_checks, self_test  # noqa: E402
from reference import Sampler  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import WORKLOADS, experiments  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 9
PROBES_PER_SLOT = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# exit codes that complete an experiment; simulate's 3 is a flagged blow-up
COMPLETED = {"simulate": (0, 3)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def pin_to_one_cpu() -> int | None:
    """Pin this process (and so every worker it starts) to its lowest CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(env: dict, nproc: int, cpu: int | None) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "thread_vars": {var: env[var] for var in THREAD_VARS},
    }


class Run:
    """State of one benchmark run: workers started, operations, problems."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.plan = experiments(workload, seed)
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []
        self.workers = 0

    def worker(self, trace: str | None = None, setup_only: bool = False, sample: bool = False) -> dict | None:
        """Start one worker and wait for it; None if it did not finish.

        With ``sample`` the reference kernel is timed while the worker runs,
        and its times are returned as ``ref_s``.
        """
        tag = f"w{self.workers}"
        self.workers += 1
        d = os.path.join(self.workdir, tag)
        os.makedirs(d)
        result = os.path.join(d, "result.json")
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--dir",
            d,
            "--result",
            result,
            "--src",
            SRC,
        ]
        cmd += (["--trace", trace] if trace else []) + ["--setup-only"] * setup_only
        sampler = Sampler() if sample else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with sampler:
                proc = subprocess.run(
                    cmd,
                    env=self.env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    timeout=max(1.0, self.deadline - time.monotonic()),
                )
        except subprocess.TimeoutExpired:
            self.notes.append(f"{tag}: worker stopped at the run's time limit")
            return None
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or not os.path.exists(result):
            self.notes.append(f"{tag}: worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return None
        with open(result) as fh:
            out = json.load(fh)
        out["dir"] = d
        out["process_wall_s"] = wall
        if sample:
            out["ref_s"] = sampler.samples
        return out

    def round(self, trace: str | None = None, sample: bool = False) -> dict | None:
        """One round: run the experiments, count them, check their outputs."""
        out = self.worker(trace=trace, sample=sample)
        by_label = {e["label"]: e for e in out["experiments"]} if out else {}
        passed = []
        for label, kind, cfg in self.plan:
            self.attempted += 1
            e = by_label.get(label)
            if e is None or e["exit_code"] not in COMPLETED.get(kind, (0,)) or not e["outdir"]:
                self.failed += 1
                detail = "not run" if e is None else f"exit code {e['exit_code']} {e['error'] or ''}".strip()
                self.notes.append(f"{label}: failed ({detail[-400:]})")
                continue
            problems = run_checks(label, kind, e["outdir"], cfg)
            if problems:
                self.failed += 1
                self.correct = False
                self.notes += [f"{label}: {p}" for p in problems]
            else:
                passed.append((label, kind, e["outdir"], cfg))
        if out is not None:
            out["passed"] = passed
            out["wall_s"] = sum(e["seconds"] for e in out["experiments"])
            out["cpu_s"] = sum(e["cpu_seconds"] for e in out["experiments"])
        return out

    def self_test(self, rnd: dict) -> None:
        records = self_test(rnd["passed"])
        missed = [r for r in records if not (r["caught"] and r["restored"])]
        print(f"self-test: {len(records) - len(missed)} of {len(records)} damaged outputs caught and restored")
        for r in missed:
            self.correct = False
            self.notes.append(f"self-test: {r}")

    def discard(self, rnd: dict | None) -> None:
        if rnd is not None:
            shutil.rmtree(rnd["dir"], ignore_errors=True)


def setup_probes(run: Run, setups: list[float], n: int) -> None:
    """Start up to ``n`` set-up-only workers and keep their set-up times."""
    for _ in range(n):
        if time.monotonic() > run.deadline - 10.0:
            return
        probe = run.worker(setup_only=True)
        if probe is None:
            return
        setups.append(probe["setup_s"])
        run.discard(probe)


def timed_run(run: Run, seconds: float) -> dict:
    ratios, rss, setups = [], [], []
    start = time.monotonic()
    setup_probes(run, setups, PROBES_PER_SLOT)
    while True:
        rnd = run.round(sample=True)
        if rnd is None:
            break
        ref_s = statistics.median(rnd["ref_s"])
        ratios.append(rnd["cpu_s"] / ref_s)
        rss.append(rnd["peak_rss_mb"])
        if len(ratios) == 1:
            run.self_test(rnd)
        print(
            f"round {len(ratios)}: wall {rnd['wall_s']:.3f} s, CPU {rnd['cpu_s']:.3f} s, reference "
            f"{ref_s * 1e3:.2f} ms (median of {len(rnd['ref_s'])}), cpu_ref {ratios[-1]:.1f}, setup {rnd['setup_s']:.3f} s, "
            f"peak RSS {rnd['peak_rss_mb']:.1f} MB, "
            + ", ".join(f"{e['label']} {e['seconds']:.3f} s" for e in rnd["experiments"])
        )
        run.discard(rnd)
        setup_probes(run, setups, PROBES_PER_SLOT)
        round_s = rnd["process_wall_s"]
        now = time.monotonic()
        if now - start + round_s > seconds or now + round_s > run.deadline - 10.0:
            break
    setup_probes(run, setups, SETUP_SAMPLES - len(setups))
    if not ratios or not setups:
        return {}
    return {
        "setup_s": statistics.median(setups),
        "cpu_ref": statistics.median(ratios),
        "peak_rss_mb": statistics.median(rss),
    }


def replicas_used_ratio(rnd: dict) -> float:
    """Replicas that entered a written statistic over replicas asked for."""
    used = asked = 0
    for label, kind, outdir, cfg in rnd["passed"]:
        if kind == "convergence":
            rows = read_csv(os.path.join(outdir, "medians.csv"))
            used += min(int(r["replicas_used"]) for r in rows)
        elif kind in ("processes", "regularity"):
            name = "mc_summary.csv" if kind == "processes" else "exponents.csv"
            used += min(int(r["replicas"]) for r in read_csv(os.path.join(outdir, name)))
        else:
            continue
        asked += cfg["replicas"]
    return used / asked if asked else 0.0


def output_digests(rnd: dict) -> dict:
    digests = {}
    for label, kind, outdir, cfg in rnd["passed"]:
        with open(os.path.join(outdir, "manifest.json")) as fh:
            digests[label] = [(f["name"], f["sha256"], f["bytes"]) for f in json.load(fh)["files"]]
    return digests


def traced_run(run: Run) -> dict:
    plain = run.round()
    if plain is None:
        return {}
    run.self_test(plain)
    timed = run.round(trace="time")
    alloc = run.round(trace="alloc")
    if timed is None or alloc is None:
        return {}
    metrics = summarize(os.path.join(timed["dir"], "spans"), os.path.join(alloc["dir"], "spans"))
    want = output_digests(plain)
    for name, rnd in (("time", timed), ("alloc", alloc)):
        got = output_digests(rnd)
        differ = sorted(label for label in set(want) | set(got) if want.get(label) != got.get(label))
        if differ:
            run.correct = False
            run.notes.append(f"outputs of the {name}-traced round differ from the untraced ones: {differ}")
    if metrics["trace.coarsen_mismatches"]:
        run.correct = False
        run.notes.append(f"{metrics['trace.coarsen_mismatches']} coarsen_noise outputs are not the 4x2 block mean")
    metrics["cli.replicas_used_ratio"] = replicas_used_ratio(timed)
    metrics["trace.overhead_s"] = timed["wall_s"] - plain["wall_s"]
    seconds = {e["label"]: e["seconds"] for e in plain["experiments"]}
    for label in ("simulate", "processes", "kernel-diagnostics"):
        metrics[f"experiment_s.{label}"] = seconds.get(label, 0.0)
    print(
        f"untraced wall {plain['wall_s']:.3f} s, time-traced {timed['wall_s']:.3f} s, "
        f"alloc-traced {alloc['wall_s']:.3f} s; {metrics['trace.spans']} spans over {timed.get('wrapped')} "
        f"wrapped callables; {metrics['trace.coarsen_checked']} coarsenings checked"
    )
    for rnd in (plain, timed, alloc):
        run.discard(rnd)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sbe", "__init__.py")):
        print(f"perfbench: no sbe package under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpu = pin_to_one_cpu()
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        run = Run(args.workload, args.seed, workdir)
        print("env: " + json.dumps(environment(run.env, nproc, cpu), sort_keys=True))
        measured = traced_run(run) if args.trace else timed_run(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    for note in run.notes:
        print(f"note: {note}")
    if not measured:
        print("perfbench: no round completed; nothing to report", file=sys.stderr)
        return 1
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
