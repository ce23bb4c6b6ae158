"""Hypothesis strategies shared by the property tests."""

import math

from hypothesis import strategies as st


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


#: In-bounds chains: the four fitted parameters, the detector's efficiency
#: and dark probability, and the pump power and the two mus the observables
#: are taken at. The upper ends of the transmissions, V0 and the efficiency
#: are the bound of 1 itself.
CHAINS = st.fixed_dictionaries({
    "system_transmission": _log_uniform(1e-3, 1.0),
    "noise_coeff_beta": _log_uniform(1e-3, 1e2),
    "transmission_product": _log_uniform(1e-3, 1.0),
    "intrinsic_visibility_v0": st.floats(0.05, 1.0),
    "efficiency": _log_uniform(0.01, 1.0),
    "dark_prob_per_gate": _log_uniform(1e-7, 1e-2),
    "pump_power_w": _log_uniform(1e-3, 0.1),
    "mu_fringe": _log_uniform(1e-2, 5.0),  # calibrate needs mu_high > mu_fringe
    "mu_high": _log_uniform(20.0, 1e3),
})

#: The keys of :data:`CHAINS` that are not fitted parameters.
DETECTOR_KEYS = ("efficiency", "dark_prob_per_gate")
CONDITION_KEYS = ("pump_power_w", "mu_fringe", "mu_high")
