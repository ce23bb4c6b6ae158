"""Quantum frequency downconversion simulator.

Models the downconversion of a single-photon-level coherent pulse train in
a pumped chi(2) waveguide, followed by a 1-bit delay interferometer and a
gated Geiger-mode detector, with both closed-form expected rates and seeded
Monte Carlo click sampling.
"""

from .calibration import CalibrationContext, CalibrationTargets, calibrate, calibrated_chain
from .detector import CountSummary
from .experiment import (
    ChainParams,
    ScanResult,
    analytic_visibility,
    expected_rate,
    run_fig4a,
    run_fig4b,
    run_fig5,
    run_fig6,
)

__all__ = [
    "CalibrationContext",
    "CalibrationTargets",
    "ChainParams",
    "CountSummary",
    "ScanResult",
    "analytic_visibility",
    "calibrate",
    "calibrated_chain",
    "expected_rate",
    "run_fig4a",
    "run_fig4b",
    "run_fig5",
    "run_fig6",
]

__version__ = "0.1.0"
