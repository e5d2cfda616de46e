"""Non-Hermitian quasi-periodically kicked rotor toolkit.

Split-operator Floquet evolution on a truncated momentum lattice, rescaled
OTOC scrambling diagnostics, instantaneous-Floquet quasienergy spectra, and
freezing-vs-scrambling phase diagrams, with a CLI for sweeps and canned
figure recipes.
"""

__version__ = "0.1.0"

from .constants import OMEGA1, OMEGA2, PLASTIC
from .lattice import (
    MomentumDistribution,
    MomentumLattice,
    NormCollapseError,
    WaveFunction,
    ground_state,
    momentum_distribution,
)
from .observables import (
    EvolutionRecord,
    FitError,
    NormGrowthFit,
    OtocSeries,
    ProfileFit,
    compare_profiles,
    expectation_p,
    expectation_p2,
    fit_exponential_profile,
    fit_gaussian_profile,
    fit_norm_growth,
    log_mean_norm,
    otoc_approx,
    otoc_exact,
    record_series,
    scrambling_rate,
)
from .phases import (
    AxisSpec,
    Features,
    PhaseDiagram,
    classify,
    extract_features,
    norm_scan,
    phase_diagram,
)
from .propagator import (
    KickSchedule,
    SimConfig,
    WrapAroundWarning,
    apply_free,
    apply_kick,
    evolve,
    modulation_factor,
    step,
)
from .spectrum import (
    FidelityRecord,
    QuasiSpectrum,
    SpectrumError,
    build_floquet_matrix,
    fidelity_profile,
    quasi_spectrum,
    spectrum_at,
)
