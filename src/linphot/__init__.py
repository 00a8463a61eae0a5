"""Photon statistics from linear (non-counting) photodetectors.

Simulates a linear detector chain (per-photon gain spread plus baseline
noise), calibrates the mean single-photon response from an efficiency
sweep of the voltage variance-to-mean ratio, and reconstructs the
detected-photon distribution by rebinning voltages into bins of that
width.
"""

from .calibration import (
    CalibrationFit,
    EtaSeriesPoint,
    eta_point_from_samples,
    fit_fano_line,
    gain_scaling_check,
    mean_constancy_check,
    run_eta_series,
)
from .detector import (
    DarkNoiseModel,
    GainModel,
    VoltageEnsemble,
    make_gain,
    simulate_ensemble,
)
from .errors import (
    ConfigError,
    InsufficientDataError,
    InsufficientDesignError,
    InvalidParameterError,
    LinphotError,
    SingularFitError,
    UnsupportedOracleError,
    UnsupportedOrderError,
)
from .loss import DetectedPhotonDistribution, apply_bernoulli, sample_m
from .moments import (
    MomentSet,
    analytic_voltage_moments,
    pmf_moments,
    sample_moments,
)
from .pipeline import RunResult, run_experiment
from .reconstruction import (
    ReconstructionResult,
    compare,
    expected_rebinned_pmf,
    rebin,
    self_consistency_check,
    subtract_offset,
    total_variation,
)
from .sources import (
    PhotonNumberDistribution,
    from_pmf,
    make_fock,
    make_multimode_thermal,
    make_poisson,
    make_thermal,
    sample_n,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationFit",
    "ConfigError",
    "DarkNoiseModel",
    "DetectedPhotonDistribution",
    "EtaSeriesPoint",
    "GainModel",
    "InsufficientDataError",
    "InsufficientDesignError",
    "InvalidParameterError",
    "LinphotError",
    "MomentSet",
    "PhotonNumberDistribution",
    "ReconstructionResult",
    "RunResult",
    "SingularFitError",
    "UnsupportedOracleError",
    "UnsupportedOrderError",
    "VoltageEnsemble",
    "analytic_voltage_moments",
    "apply_bernoulli",
    "compare",
    "eta_point_from_samples",
    "expected_rebinned_pmf",
    "fit_fano_line",
    "from_pmf",
    "gain_scaling_check",
    "make_fock",
    "make_gain",
    "make_multimode_thermal",
    "make_poisson",
    "make_thermal",
    "mean_constancy_check",
    "pmf_moments",
    "rebin",
    "run_eta_series",
    "run_experiment",
    "sample_m",
    "sample_moments",
    "sample_n",
    "self_consistency_check",
    "simulate_ensemble",
    "subtract_offset",
    "total_variation",
]
