"""The one-pass batched convergence study against the per-replica reference.

``reference_study`` is the study as it ran replica by replica and level by
level: sample the whole finest noise field, run every level to its blow-up
truncation, coarsen, intersect the recorded times, trim them by the escape
guard and take ``comparison_norm`` on what is left. The batched study must
return exactly the same numbers.
"""

import numpy as np
import pytest

from sbe.grids import GridSpec, NoiseField, block_average, coarsen_slice, sample_noise
from sbe.measures import AtomicMeasure2D
from sbe.norms import comparison_norm, make_test_family
from sbe.operators import OperatorFamily
from sbe.solver import (
    ESCAPE_GUARD,
    MIN_CLEAN_TIMES,
    SchemeConfig,
    coupled_convergence_study,
    drift_coefficient,
    ic_white_noise,
    run,
)


def reference_study(fam, levels, T, replicas, seed, alpha=-0.6, eta=-0.6, b_drift=0.0, guard=ESCAPE_GUARD):
    """Returns (per_pair, rows, dropped, escape_times, trimmed time count)."""
    levels = sorted(levels)
    coarse_grid = GridSpec(levels[0], T)
    tf = make_test_family(coarse_grid, lambda_min=coarse_grid.eps, lambda_max=0.5)
    per_pair = {f"{a}->{b}": [] for a, b in zip(levels[:-1], levels[1:])}
    rows, dropped, escapes, trimmed = [], [], [], 0
    for rep in range(replicas):
        fine = GridSpec(levels[-1], T)
        noise = sample_noise(fine, seed + rep)
        u0 = ic_white_noise(fine, seed + rep)
        recs, blowups = {}, []
        for n in reversed(levels):
            scheme = SchemeConfig(fam=fam, grid=noise.grid, b_drift=b_drift, record_stride=4 ** (n - levels[0]))
            traj = run(scheme, u0, noise, T)
            recs[n] = {round(t, 12): u for t, u in traj.snapshots if t > 0}
            if traj.blowup:
                blowups.append(traj.blowup_time)
            if n != levels[0]:
                noise = NoiseField(GridSpec(n - 1, T), noise.seed, block_average(noise.values))
                u0 = coarsen_slice(u0)
        escapes.append(min(blowups) if blowups else None)
        common = sorted(set.intersection(*(set(recs[n]) for n in levels)))
        use = [t for t in common if all(np.abs(recs[n][t]).max() <= guard for n in levels)]
        trimmed += len(common) - len(use)
        if len(use) < MIN_CLEAN_TIMES:
            dropped.append(rep)
            continue
        times = np.array(use)
        for a, b in zip(levels[:-1], levels[1:]):
            cvals = np.stack([recs[a][t] for t in use])
            fvals = np.stack([recs[b][t] for t in use])
            val = comparison_norm(cvals, fvals, times, GridSpec(a, T), GridSpec(b, T), alpha, eta, tf)
            per_pair[f"{a}->{b}"].append(val)
            rows.append((rep, f"{a}->{b}", val))
    return per_pair, rows, dropped, escapes, trimmed


def linear(fam):
    return OperatorFamily(fam.nu, fam.pi, AtomicMeasure2D({(0, 0): 0.0}))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonlinear_matches_reference(fam_bw_ss):
    """Renormalized Sasamoto-Spohn: early escapes, guard trims and drops."""
    b = drift_coefficient(fam_bw_ss, "renormalized")
    seen = {"escaped": 0, "trimmed": 0, "dropped": 0, "used": 0}
    configs = (([4, 5, 6], 0.0625, 12, 1), ([4, 5, 6], 0.0625, 12, 3), ([5, 6, 7], 0.03125, 4, 100))
    for levels, T, replicas, seed in configs:
        study = coupled_convergence_study(fam_bw_ss, levels, T, replicas, seed, b_drift=b)
        per_pair, rows, dropped, escapes, trimmed = reference_study(fam_bw_ss, levels, T, replicas, seed, b_drift=b)
        assert study.per_pair == per_pair
        assert study.rows == rows
        assert study.dropped == dropped
        assert study.escape_times == escapes
        seen["escaped"] += sum(t is not None for t in escapes)
        seen["trimmed"] += trimmed
        seen["dropped"] += len(dropped)
        seen["used"] += replicas - len(dropped)
    assert all(seen.values()), seen


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_linear_matches_reference(fam_bw_ss):
    lin = linear(fam_bw_ss)
    # at coarse level 7 the times carry more than 12 decimals, so the
    # rounded record keys differ from the exact times
    for levels, T, replicas, seed in (([4, 5, 6], 0.125, 5, 7), ([5, 6, 7], 0.0625, 3, 31), ([7, 8], 2.0**-9, 2, 3)):
        study = coupled_convergence_study(lin, levels, T, replicas, seed, alpha=-0.5, eta=-0.4)
        per_pair, rows, dropped, escapes, _ = reference_study(lin, levels, T, replicas, seed, alpha=-0.5, eta=-0.4)
        assert (study.per_pair, study.rows) == (per_pair, rows)
        assert study.dropped == dropped == []
        assert study.escape_times == escapes == [None] * replicas


def test_unpacks_as_pair(fam_bw_ss):
    study = coupled_convergence_study(linear(fam_bw_ss), [3, 4, 5], 0.0625, 2, 5)
    per_pair, rows = study
    assert per_pair is study.per_pair and rows is study.rows
    assert list(per_pair) == ["3->4", "4->5"]


def test_alpha_checked_before_any_step(fam_bw_ss, monkeypatch):
    # at these settings every replica is dropped, so a check after the run
    # would never see alpha
    import sbe.solver

    def no_step(*args):
        raise AssertionError("stepped before checking alpha")

    # the study steps through the held step of each level, not step_forward
    monkeypatch.setattr(sbe.solver._Step, "advance", no_step)
    b = drift_coefficient(fam_bw_ss, "renormalized")
    with pytest.raises(ValueError, match="smoothness"):
        coupled_convergence_study(fam_bw_ss, [3, 4, 5], 0.25, 4, 0, alpha=-5.0, b_drift=b)


def test_one_comparison_scale_refused_before_any_step(fam_bw_ss, monkeypatch):
    # at level 1 the study's test family has the one scale 1/2
    import sbe.solver

    def no_step(*args):
        raise AssertionError("stepped before checking the scales")

    monkeypatch.setattr(sbe.solver._Step, "advance", no_step)
    with pytest.raises(ValueError, match="need at least two scales"):
        coupled_convergence_study(fam_bw_ss, [1, 2, 3], 0.25, 2, 0)


def test_levels_must_be_consecutive(fam_bw_ss):
    with pytest.raises(ValueError, match="consecutive"):
        coupled_convergence_study(fam_bw_ss, [3, 5, 7], 0.0625, 1, 0)


@pytest.mark.parametrize("levels", [[5], [5, 5]])
def test_one_level_refused_before_any_step(fam_bw_ss, monkeypatch, levels):
    # one level has no pair to compare; the check is the one that the
    # convergence kind's parse-time check calls, with three for its least
    import sbe.solver

    def no_step(*args):
        raise AssertionError("stepped before checking the levels")

    monkeypatch.setattr(sbe.solver._Step, "advance", no_step)
    with pytest.raises(ValueError, match="2 or more distinct consecutive levels"):
        coupled_convergence_study(fam_bw_ss, levels, 0.0625, 1, 0)
