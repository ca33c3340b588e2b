"""Single-excitation dynamics of two atoms in a cavity with direct exchange.

A three-level subspace (photon in cavity, atom 1 excited, atom 2 excited)
evolved under asymmetric Rabi couplings plus resonant dipole-dipole
interaction, with Wootters concurrence of the reduced two-atom state as the
observable of interest.
"""

from .errors import (
    CavityPairError,
    CoincidentAtoms,
    DegenerateModel,
    DimensionMismatch,
    InvalidDensityMatrix,
    InvalidStep,
    NoConvergence,
    NonHermitianInput,
    NonpositiveSeparation,
    NumericalContractError,
    ParameterError,
    PatternMismatch,
    UnnormalizedState,
    ZeroCoupling,
)
from .qmath import (
    SpectralDecomposition,
    evolve_spectral,
    hermiticity_defect,
    hermitian_eigendecompose,
    rk4_schrodinger,
)
from .model import (
    AnalyticSpectrum,
    ModelParams,
    analytic_spectrum,
    build_effective_h,
    build_single_excitation_h,
)
from .dynamics import (
    InitialState,
    PeakReport,
    TimeSeries,
    closed_form_concurrence,
    concurrence_series,
    evolve,
    numeric_peak_concurrence,
    peak_height,
    peak_optimum,
    peak_report,
    peak_times,
    reduced_density,
    scan_peak_optimum,
)
from .entanglement import wootters_concurrence, xstate_concurrence
from .geometry import (
    CavityGeometry,
    SweepResult,
    coupling_at,
    mesh,
    params_at,
    rddi_at,
    sweep_position,
)

__all__ = [
    "AnalyticSpectrum",
    "CavityGeometry",
    "CavityPairError",
    "CoincidentAtoms",
    "DegenerateModel",
    "DimensionMismatch",
    "InitialState",
    "InvalidDensityMatrix",
    "InvalidStep",
    "ModelParams",
    "NoConvergence",
    "NonHermitianInput",
    "NonpositiveSeparation",
    "NumericalContractError",
    "ParameterError",
    "PatternMismatch",
    "PeakReport",
    "SpectralDecomposition",
    "SweepResult",
    "TimeSeries",
    "UnnormalizedState",
    "ZeroCoupling",
    "analytic_spectrum",
    "build_effective_h",
    "build_single_excitation_h",
    "closed_form_concurrence",
    "concurrence_series",
    "coupling_at",
    "evolve",
    "evolve_spectral",
    "hermiticity_defect",
    "hermitian_eigendecompose",
    "mesh",
    "numeric_peak_concurrence",
    "params_at",
    "peak_height",
    "peak_optimum",
    "peak_report",
    "peak_times",
    "rddi_at",
    "reduced_density",
    "rk4_schrodinger",
    "scan_peak_optimum",
    "sweep_position",
    "wootters_concurrence",
    "xstate_concurrence",
]

__version__ = "0.1.0"
