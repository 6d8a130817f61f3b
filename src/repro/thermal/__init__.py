"""Lumped-parameter thermal modelling.

Smartphones are passively cooled: all heat leaves through the case.  A small
RC network (die → package → battery/case → ambient) captures the dynamics
that drive thermal throttling — seconds-scale die heating, minutes-scale case
soak — which is exactly the behaviour the ACCUBENCH warmup and cooldown
phases exist to normalize.
"""

from repro.thermal.ambient import (
    AmbientProfile,
    ConstantAmbient,
    DiurnalAmbient,
    RampAmbient,
    StepAmbient,
    sweep,
)
from repro.thermal.integrator import StableEuler
from repro.thermal.network import ThermalLink, ThermalNetwork, ThermalNode
from repro.thermal.propagator import ExpmPropagator
from repro.thermal.sensors import TemperatureSensor
from repro.thermal.skin import SkinModel, SkinThrottle, SkinThrottleSpec

__all__ = [
    "AmbientProfile",
    "ConstantAmbient",
    "DiurnalAmbient",
    "ExpmPropagator",
    "RampAmbient",
    "SkinModel",
    "SkinThrottle",
    "SkinThrottleSpec",
    "StableEuler",
    "StepAmbient",
    "TemperatureSensor",
    "ThermalLink",
    "ThermalNetwork",
    "ThermalNode",
    "sweep",
]
