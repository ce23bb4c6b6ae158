"""Closed-form oracle for the benchmark's output checks.

Written from the paper's formulas and the configuration file alone; it
calls nothing in ``qfdc``, so a fault in the package's own closed form
(``expected_rate``, ``analytic_visibility``) or in its calibration shows up
as a disagreement instead of cancelling out.

Per gate at the detector, with pump power P and mean input photon number mu:

* conversion efficiency  eta(P) = T_sys * sin^2(sqrt(eta_nor * P))
* signal photons         mu * eta(P) * T_post, times (1 + V0*cos(phi))/2
                         behind the interferometer
* pump background        beta * P * T_post, split into leakage (share
                         f_leak) and Raman; behind the interferometer the
                         leakage is rejected by the out-of-band suppression
                         (12 dB) and the Raman light is halved
* click probability      1 - (1 - p_dark) * exp(-eta_det * mu_det)
* fringe visibility      S*V0 / (S + 2*(B + d)) raw, S*V0 / (S + 2*B) with
                         the dark counts d removed, where S and B are the
                         signal and background clicks per gate
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: The paper's quoted figures, each with half a unit of its last quoted digit.
PAPER_FIGURES = {
    "efficiency_27mW": (0.0035, 0.00005),
    "visibility_mu143": (0.94, 0.005),
    "visibility_raw_mu0.7": (0.379, 0.0005),
    "visibility_sub_mu0.7": (0.721, 0.0005),
}


@dataclass(frozen=True)
class Oracle:
    t_sys: float
    beta: float
    t_post: float
    v0: float
    eta_nor: float
    leak_fraction: float
    oob_db: float
    eta_det: float
    p_dark: float
    gate_rate_hz: float
    pump_power_w: float

    @classmethod
    def from_config(cls, cfg: dict) -> "Oracle":
        chain, app, det = cfg["chain"], cfg["apparatus"], cfg["apparatus"]["detector"]
        return cls(
            t_sys=chain["system_transmission"],
            beta=chain["noise_coeff_beta"],
            t_post=chain["transmission_product"],
            v0=chain["intrinsic_visibility_v0"],
            eta_nor=app["eta_nor_per_w"],
            leak_fraction=app["leak_fraction"],
            oob_db=app["oob_suppression_db"],
            eta_det=det["efficiency"],
            p_dark=det["dark_prob_per_gate"],
            gate_rate_hz=det["gate_rate_hz"],
            pump_power_w=cfg["targets"]["pump_power_w"],
        )

    def efficiency(self, power_w: float) -> float:
        return self.t_sys * math.sin(math.sqrt(self.eta_nor * power_w)) ** 2

    def background_photons(self, power_w: float, interferometer: bool) -> float:
        total = self.beta * power_w * self.t_post
        if not interferometer:
            return total
        leak = self.leak_fraction * total
        return leak * 10.0 ** (-self.oob_db / 10.0) + (total - leak) / 2.0

    def p_click(self, mu: float, power_w: float, phi: float | None = None) -> float:
        """Click probability per gate; ``phi=None`` means no interferometer."""
        signal = mu * self.efficiency(power_w) * self.t_post
        if phi is not None:
            signal *= (1.0 + self.v0 * math.cos(phi)) / 2.0
        mu_det = signal + self.background_photons(power_w, phi is not None)
        return 1.0 - (1.0 - self.p_dark) * math.exp(-self.eta_det * mu_det)

    def visibility(self, mu: float, power_w: float) -> tuple[float, float]:
        """(raw, dark-subtracted) fringe visibility behind the interferometer."""
        s = self.eta_det * mu * self.efficiency(power_w) * self.t_post
        b = self.eta_det * self.background_photons(power_w, True)
        return s * self.v0 / (s + 2.0 * (b + self.p_dark)), s * self.v0 / (s + 2.0 * b)

    def paper_check(self) -> list[str]:
        """Disagreements with the paper's quoted figures (empty when all agree)."""
        p = self.pump_power_w
        raw, sub = self.visibility(0.7, p)
        got = {
            "efficiency_27mW": self.efficiency(0.027),
            "visibility_mu143": self.visibility(143.0, p)[0],
            "visibility_raw_mu0.7": raw,
            "visibility_sub_mu0.7": sub,
        }
        return [
            f"oracle {name} = {got[name]:.6g}, paper {quoted:g} +- {tol:g}"
            for name, (quoted, tol) in PAPER_FIGURES.items()
            if abs(got[name] - quoted) > tol
        ]
