"""Simulated measurement apparatus.

The paper's numbers come from two instruments, both modelled here:

* the **Monsoon power monitor** [15], which replaces the battery, supplies a
  configurable voltage and samples the current drawn; and
* the **THERMABOX**, a home-built thermal chamber (RaspberryPi controller,
  thermistor probe, 250 W halogen heater, compressor) holding the ambient
  at 26 ± 0.5 °C.
"""

from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.instruments.probe import ThermistorProbe
from repro.instruments.thermabox import Thermabox, ThermaboxConfig

__all__ = [
    "MonsoonPowerMonitor",
    "Thermabox",
    "ThermaboxConfig",
    "ThermistorProbe",
]
