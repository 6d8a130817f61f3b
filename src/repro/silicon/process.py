"""Semiconductor process-node descriptions.

A :class:`ProcessNode` captures the per-process constants that the leakage,
dynamic-power and variation models need.  The three nodes defined here match
the SoC generations the paper studies (Section IV):

* 28 nm planar LP — SD-800 and SD-805 (Nexus 5, Nexus 6)
* 20 nm planar — SD-810 (Nexus 6P)
* 14 nm FinFET — SD-820 and SD-821 (LG G5, Google Pixel)

The constants are calibrated, not measured: they are chosen so the simulated
fleets reproduce the *shape* of the paper's results (which bin wins, spread
magnitudes, generation-over-generation efficiency trends), per DESIGN.md §5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ProcessNode:
    """Constants describing one manufacturing process.

    Attributes
    ----------
    name:
        Human-readable process name, e.g. ``"28nm-LP"``.
    feature_nm:
        Drawn feature size in nanometres.
    nominal_vdd:
        Typical supply voltage at the top frequency, volts.
    vth_sigma:
        Die-to-die threshold-voltage standard deviation, volts.  This is the
        master knob for how much chips of one model differ.
    leak_volt_slope:
        Exponential sensitivity of leakage to supply voltage, 1/V.
    leak_temp_slope:
        Exponential sensitivity of leakage to temperature, 1/°C.  Leakage
        roughly doubles every ``ln(2)/leak_temp_slope`` degrees.
    leak_vth_slope:
        Exponential sensitivity of leakage to threshold-voltage shift, 1/V.
        Fast (low-V_th) dies leak more: ``exp(-delta_vth * leak_vth_slope)``.
    speed_per_vth:
        Linear sensitivity of achievable speed to threshold-voltage shift,
        fraction per volt.  Fast dies reach higher frequency at fixed voltage.
    volt_per_vth:
        Volts of supply adjustment required to compensate one volt of V_th
        shift at constant speed; used by the voltage binner.
    """

    name: str
    feature_nm: float
    nominal_vdd: float
    vth_sigma: float
    leak_volt_slope: float
    leak_temp_slope: float
    leak_vth_slope: float
    speed_per_vth: float
    volt_per_vth: float

    def __post_init__(self) -> None:
        if self.feature_nm <= 0:
            raise ConfigurationError("feature_nm must be positive")
        if self.nominal_vdd <= 0:
            raise ConfigurationError("nominal_vdd must be positive")
        if self.vth_sigma < 0:
            raise ConfigurationError("vth_sigma must be non-negative")
        for field_name in ("leak_volt_slope", "leak_temp_slope", "leak_vth_slope"):
            if getattr(self, field_name) < 0:
                raise ConfigurationError(f"{field_name} must be non-negative")


#: 28 nm planar low-power process (SD-800 / SD-805).  Planar 28 nm has large
#: V_th spread and strong leakage sensitivity — the generation where the
#: paper observed the largest variations (14% performance, 19% energy).
PROCESS_28NM_LP = ProcessNode(
    name="28nm-LP",
    feature_nm=28.0,
    nominal_vdd=1.05,
    vth_sigma=0.022,
    leak_volt_slope=3.2,
    leak_temp_slope=0.019,
    leak_vth_slope=24.0,
    speed_per_vth=2.4,
    volt_per_vth=2.8,
)

#: 20 nm planar process (SD-810).  The last planar node: leakage got worse
#: before FinFETs arrived, matching the SD-810's notorious thermals.
PROCESS_20NM_PLANAR = ProcessNode(
    name="20nm-planar",
    feature_nm=20.0,
    nominal_vdd=1.00,
    vth_sigma=0.018,
    leak_volt_slope=3.4,
    leak_temp_slope=0.021,
    leak_vth_slope=24.0,
    speed_per_vth=2.6,
    volt_per_vth=2.9,
)

#: 14 nm FinFET process (SD-820 / SD-821).  FinFETs slashed leakage and its
#: spread — the paper sees only ~5% performance and ~10% energy variation.
PROCESS_14NM_FINFET = ProcessNode(
    name="14nm-FinFET",
    feature_nm=14.0,
    nominal_vdd=0.95,
    vth_sigma=0.012,
    leak_volt_slope=2.6,
    leak_temp_slope=0.015,
    leak_vth_slope=24.0,
    speed_per_vth=2.0,
    volt_per_vth=2.4,
)
