"""Quantum frequency downconversion simulator.

Models the downconversion of a single-photon-level coherent pulse train in
a pumped chi(2) waveguide, followed by a 1-bit delay interferometer and a
gated Geiger-mode detector, with both closed-form expected rates and seeded
Monte Carlo click sampling.
"""

from .calibration import (
    CalibrationContext,
    CalibrationResult,
    CalibrationTargets,
    calibrate,
    calibrated_chain,
    residuals_within_tolerance,
)
from .detector import (
    CountSummary,
    DetectorSpec,
    click_probability,
    dark_subtract,
    derive_seed,
    sample_gates,
)
from .experiment import (
    ChainParams,
    ExpectedRate,
    ScanResult,
    VisibilityPair,
    analytic_visibility,
    expected_rate,
    run_fig4a,
    run_fig4b,
    run_fig5,
    run_fig6,
    simulate_point,
)
from .interferometer import InterferometerSpec, suppress_background, transmit_train
from .mixer import (
    ConverterSpec,
    NoiseBackground,
    ProcessKind,
    ThreeWaveProcess,
    conversion_efficiency,
    convert,
    derive_process,
    noise_background,
    spdc_leak_safe,
)
from .optics import (
    CoherentPulseTrain,
    OpticalMode,
    PhasePattern,
    apply_phase,
    attenuate,
    coherent_train,
    mode_from_wavelength,
)

__all__ = [
    "CalibrationContext",
    "CalibrationResult",
    "CalibrationTargets",
    "ChainParams",
    "CoherentPulseTrain",
    "ConverterSpec",
    "CountSummary",
    "DetectorSpec",
    "ExpectedRate",
    "InterferometerSpec",
    "NoiseBackground",
    "OpticalMode",
    "PhasePattern",
    "ProcessKind",
    "ScanResult",
    "ThreeWaveProcess",
    "VisibilityPair",
    "analytic_visibility",
    "apply_phase",
    "attenuate",
    "calibrate",
    "calibrated_chain",
    "click_probability",
    "coherent_train",
    "conversion_efficiency",
    "convert",
    "dark_subtract",
    "derive_process",
    "derive_seed",
    "expected_rate",
    "mode_from_wavelength",
    "noise_background",
    "residuals_within_tolerance",
    "run_fig4a",
    "run_fig4b",
    "run_fig5",
    "run_fig6",
    "sample_gates",
    "simulate_point",
    "spdc_leak_safe",
    "suppress_background",
    "transmit_train",
]

__version__ = "0.1.0"
