"""Critical points of the Onsager free energy with Maier-Saupe interaction.

Axially symmetric equilibria on S^(n-1) form branches indexed by
k = 1 .. n-1 and an order parameter eta; the library computes the
intensity curves sigma_k, folds, Boltzmann densities, order-tensor
fixed points, and the full second-variation analysis (block functionals,
discretized spectra, stability verdicts with explicit witnesses).
"""

from .equilibrium import (
    MAX_CONTOUR_DIM,
    CriticalPointSpec,
    EigenClusters,
    FixedPointResult,
    OrderTensor,
    bingham_second_moments,
    critical_point,
    density,
    eigenvalue_structure,
    euler_lagrange_residual,
    fixed_point_map,
    isotropic_point,
    log_density,
    solve_fixed_point,
    sphere_order_for,
)
from .moments import ETA_MAX, moment, recurrence_residual, scaled_moments
from .quadrature import (
    DEFAULT_ORDER,
    SphereParams,
    SphereQuadrature,
    WeightedQuadrature,
    bromwich_rule,
    build_sphere_quadrature,
    build_weighted_quadrature,
    integrate_mu,
    polar_rule,
    sphere_rule,
    surface_area,
    theta_rule,
)
from .sigma import (
    EtaStar,
    PhaseBranch,
    PhaseDiagram,
    SigmaSample,
    find_eta_star,
    invert_alpha,
    phase_diagram,
    sample,
    sigma_prime,
    sigma_prime_fd,
    sigma_value,
)
from .spectral import (
    BlockSpectrum,
    SpectrumReport,
    block_spectrum,
    family_multiplicities,
    full_spectrum,
    gap_estimate,
    isotropic_threshold,
)
from .stability import (
    MARGINAL,
    STABLE,
    UNSTABLE,
    BasisIndex,
    PerturbationTop,
    StabilityReport,
    assemble_sphere_function,
    basis_eval,
    basis_indices,
    branch_tag,
    classify,
    d_quantities,
    equality_attainer,
    functional_I,
    gram_matrix,
    gram_matrix_quadrature,
    quadratic_form_decomposed,
    quadratic_form_direct,
    random_smooth_perturbation,
    wx_functionals,
)
from .verify import CheckResult, VerifyConfig, run_all
