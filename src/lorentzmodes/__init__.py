"""Modal analysis of dissipative generalized Lorentz media.

Build a medium, inspect its pole/zero structure, solve and track the
dispersion relation, assemble the reduced wave operator with its spectral
projectors, propagate per-wavenumber states, and reproduce the polynomial
energy-decay exponents by radial quadrature, read as -t E'/E at the final time.
"""

from .medium import (
    CoefficientTable,
    ConfigurationReport,
    Criticality,
    Dissipation,
    LorentzMedium,
    Oscillator,
    PoleZeroCatalog,
    new_medium,
)
from .dispersion import (
    BranchFamily,
    classify_branches,
    default_k_grid,
    diagnose_bands,
    dispersion_polynomial,
    solve_dispersion,
    track_branches,
    verify_asymptotics,
)
from .operators import (
    PerpOperator,
    build_perp_operator,
    projector_contour,
    resolvent_formula,
    spectral_decomposition,
)
from .evolution import EnvelopeFit, PropagatorResult, hf_envelope_check, lf_envelope_check, midband_rate, propagate
from .energy import (
    DecayRecord,
    FixedRandomUnit,
    OptimalBranch,
    RadialProfile,
    convergence_to_zero,
    fit_exponent,
    power_law,
    simulate_energy,
    sobolev_tail,
    verify_gamma_hf,
    verify_gamma_lf,
)

__version__ = "0.1.0"
