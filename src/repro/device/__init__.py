"""Whole-phone models.

A :class:`~repro.device.phone.Device` composes a SoC instance, a thermal
network, an OS-behaviour model and a power supply (battery or Monsoon) into
the thing ACCUBENCH actually drives.  The catalog builds the paper's five
handsets; the fleet module instantiates the paper's specific units.
"""

from repro.device.aging import BatteryAge, aged_battery, throttle_onset_soc
from repro.device.battery import Battery, BatterySpec
from repro.device.display import Display, DisplaySpec
from repro.device.catalog import (
    DEVICE_NAMES,
    DeviceSpec,
    ThermalSpec,
    ThrottleSpec,
    device_spec,
    google_pixel,
    lg_g5,
    nexus5,
    nexus6,
    nexus6p,
)
from repro.device.fleet import FleetUnit, build_device, paper_fleet, synthetic_fleet
from repro.device.os_model import OsBehavior
from repro.device.phone import Device, StepReport
from repro.device.power_rails import PowerSupply

__all__ = [
    "Battery",
    "BatteryAge",
    "BatterySpec",
    "DEVICE_NAMES",
    "Device",
    "Display",
    "DisplaySpec",
    "DeviceSpec",
    "FleetUnit",
    "OsBehavior",
    "PowerSupply",
    "StepReport",
    "ThermalSpec",
    "ThrottleSpec",
    "aged_battery",
    "build_device",
    "device_spec",
    "google_pixel",
    "lg_g5",
    "nexus5",
    "nexus6",
    "nexus6p",
    "paper_fleet",
    "synthetic_fleet",
    "throttle_onset_soc",
]
