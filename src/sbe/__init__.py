"""Lattice toolkit for the space-time discrete stochastic Burgers equation.

Validates discretization families given by atomic signed measures, computes
their renormalization constants, runs the forward explicit scheme under
coupled dyadic noise, constructs the discrete controlling processes, and
estimates discrete Hoelder-Besov regularity.
"""

__version__ = "0.1.0"

from .grids import GridSpec, LatticeField, NoiseField, sample_noise
from .heat import HeatKernel
from .measures import (
    AtomicMeasure1D,
    AtomicMeasure2D,
    ValidationReport,
    f_of_k,
    fourier_mu,
    fourier_nu,
    fourier_pi,
    g_of_k,
    preset_measure,
    validate_mu,
    validate_nu,
    validate_pi,
)
from .norms import (
    HolderEstimate,
    TestFunctionFamily,
    besov_norm_negative,
    comparison_norm,
    estimate_exponent,
    holder_norm_parabolic,
    holder_norm_space,
    make_test_family,
)
from .operators import OperatorFamily, check_parseval_twisted, derivative, laplacian, twisted_product
from .processes import lift
from .renorm import RenormConstants, c2_lattice_sum, c2_quadrature, c21, compute_constants
from .solver import (
    SchemeConfig,
    Trajectory,
    coupled_convergence_study,
    drift_coefficient,
    run,
    step_forward,
)

__all__ = [name for name in dir() if not name.startswith("_")]
