"""Quantum frequency downconversion simulator.

Models the downconversion of a single-photon-level coherent pulse train in
a pumped chi(2) waveguide, followed by a 1-bit delay interferometer and a
gated Geiger-mode detector, with both closed-form expected rates and seeded
Monte Carlo click sampling.
"""

import importlib

from .calibration import CalibrationContext, CalibrationTargets, calibrate, calibrated_chain
from .model import ChainParams, analytic_visibility, expected_rate

#: Top-level names imported on first access (PEP 562), so that ``import
#: qfdc`` loads only the model and the calibration, not the Monte Carlo.
_LAZY = {"CountSummary": "detector", "ScanResult": "experiment", "run_fig4a": "experiment",
         "run_fig4b": "experiment", "run_fig5": "experiment", "run_fig6": "experiment"}

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


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value
