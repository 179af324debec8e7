import gc
import os
import tracemalloc

# one BLAS thread, as the benchmark's workers run, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from sbe.heat import HeatKernel
from sbe.measures import preset_measure
from sbe.operators import OperatorFamily


def pytest_configure(config):
    # added here, not in pyproject.toml: pytest resolves the warning classes
    # of the ini file before it loads this file, which would import numpy,
    # and its BLAS threads with it, before the variables above are set
    config.addinivalue_line("filterwarnings", "error::numpy.exceptions.ComplexWarning")


def traced(call) -> tuple[object, int, int]:
    """call()'s result, and the peak and the current bytes it had traced beyond those allocated before it.

    Earlier garbage is collected first, so that none of it is freed inside
    the call, which would lower the peak it reports.
    """
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
        return result, peak - before, current - before
    finally:
        tracemalloc.stop()


def same_bits(got, want) -> bool:
    """Equal bit for bit, so -0.0 and 0.0 differ, without copying an array (a float becomes a 0-d array)."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))


def count_rows(monkeypatch) -> list:
    """Patch HeatKernel._rows to add up the rows of P it makes; the returned one-item list holds the count."""
    made, rows_of = [0], HeatKernel._rows

    def counted(hk, rows):
        made[0] += rows.stop - rows.start
        return rows_of(hk, rows)

    monkeypatch.setattr(HeatKernel, "_rows", counted)
    return made


def traced_peak(call) -> tuple[object, int]:
    """call()'s result and the peak bytes it had traced beyond those allocated before it."""
    result, peak, _ = traced(call)
    return result, peak


def family(pi_name: str, mu_name: str) -> OperatorFamily:
    return OperatorFamily(
        nu=preset_measure("laplacian-nn"),
        pi=preset_measure(pi_name),
        mu=preset_measure(mu_name),
    )


@pytest.fixture(scope="session")
def fam_bw_ss():
    """Backward difference with the Sasamoto-Spohn product."""
    return family("deriv-backward", "product-sasamoto-spohn")


@pytest.fixture(scope="session")
def fam_bw_pw():
    return family("deriv-backward", "product-pointwise")


@pytest.fixture(scope="session")
def fam_ce_pw():
    return family("deriv-central", "product-pointwise")


@pytest.fixture(scope="session")
def fam_ce_ss():
    return family("deriv-central", "product-sasamoto-spohn")


@pytest.fixture(scope="session")
def all_preset_families(fam_bw_ss, fam_bw_pw, fam_ce_pw, fam_ce_ss):
    return {
        "backward/sasamoto-spohn": fam_bw_ss,
        "backward/pointwise": fam_bw_pw,
        "central/pointwise": fam_ce_pw,
        "central/sasamoto-spohn": fam_ce_ss,
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
