"""Workload definitions: the CLI experiments each workload runs, as configs.

Only the standard library is imported here, so that the time to import
``sbe`` (and numpy with it) is counted in the set-up time of the worker that
generates the configs, not hidden in the benchmark's own imports.

Every experiment seed is drawn from ``random.Random(workload_seed)`` in a
fixed order, so a workload seed always yields the same configs.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("coupled-convergence", "regularity-table", "cli-suite")

# Atoms of the measure presets the configs name, written out here so that
# the checks rebuild stencils and spectra without the program's preset table.
LAPLACIAN_NN = {-1: 1.0, 0: -2.0, 1: 1.0}
DERIV_BACKWARD = {0: 1.0, -1: -1.0}
PRODUCT_SASAMOTO_SPOHN = {(1, 1): 1.0 / 3.0, (0, 1): 1.0 / 6.0, (1, 0): 1.0 / 6.0, (0, 0): 1.0 / 3.0}
PRODUCT_POINTWISE = {(0, 0): 1.0}

FAMILY_SS = {"nu": "laplacian-nn", "pi": "deriv-backward", "mu": "product-sasamoto-spohn"}
FAMILY_PW = {"nu": "laplacian-nn", "pi": "deriv-backward", "mu": "product-pointwise"}
FAMILY_LINEAR = {"nu": "laplacian-nn", "pi": "deriv-backward", "mu": {"atoms": [[0, 0, 0.0]]}}

PRODUCT_ATOMS = {"product-sasamoto-spohn": PRODUCT_SASAMOTO_SPOHN, "product-pointwise": PRODUCT_POINTWISE}

REGULARITY_REPLICAS = 4
PROCESSES_REPLICAS = 8


def experiments(workload: str, seed: int) -> list[tuple[str, str, dict]]:
    """(label, CLI subcommand, config) for each experiment of one round."""
    rng = random.Random(int(seed))

    def draw() -> int:
        return rng.randrange(1, 2**31)

    if workload == "coupled-convergence":
        # criterion 8: the nonlinear study and its linear baseline share the
        # seed, so the baseline sees the same coupled noise
        s = draw()
        return [
            (
                "convergence-nonlinear",
                "convergence",
                {
                    "family": FAMILY_SS,
                    "N_range": [5, 6, 7],
                    "T": 0.125,
                    "seed": s,
                    "replicas": 50,
                    "drift": "renormalized",
                    "initial": {"kind": "white-noise"},
                },
            ),
            (
                "convergence-linear",
                "convergence",
                {"family": FAMILY_LINEAR, "N_range": [5, 6, 7], "T": 0.125, "seed": s, "replicas": 20},
            ),
        ]
    if workload == "regularity-table":
        return [
            (
                "regularity",
                "regularity",
                {"family": FAMILY_SS, "N": 8, "T": 0.125, "seed": draw(), "replicas": REGULARITY_REPLICAS},
            )
        ]
    if workload == "cli-suite":
        return [
            (
                "simulate",
                "simulate",
                {
                    "family": FAMILY_SS,
                    "N": 9,
                    "T": 0.125,
                    "seed": draw(),
                    "drift": "renormalized",
                    "initial": {"kind": "white-noise"},
                },
            ),
            (
                "processes",
                "processes",
                {"family": FAMILY_SS, "N": 7, "T": 0.25, "seed": draw(), "replicas": PROCESSES_REPLICAS},
            ),
            ("kernel-diagnostics", "kernel-diagnostics", {"family": FAMILY_SS, "N_range": [5, 6, 7, 8], "T": 0.25}),
            # the pointwise product: its drift constant c21 is nonzero, so the
            # two c21 routes can be compared (it vanishes for Sasamoto-Spohn)
            ("constants", "constants", {"family": FAMILY_PW, "N_range": [5, 6, 7, 8, 9, 10], "T": 0.25}),
            ("heat-kernel", "heat-kernel", {"family": FAMILY_SS, "N": 7, "T": 0.25}),
        ]
    raise ValueError(f"unknown workload {workload!r}; choices: {', '.join(WORKLOADS)}")


def write_configs(workload: str, seed: int, directory: str) -> list[tuple[str, str, str]]:
    """Write one JSON config per experiment; returns (label, kind, path)."""
    os.makedirs(directory, exist_ok=True)
    out = []
    for label, kind, cfg in experiments(workload, seed):
        path = os.path.join(directory, f"{label}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, sort_keys=True, indent=1)
        out.append((label, kind, path))
    return out
