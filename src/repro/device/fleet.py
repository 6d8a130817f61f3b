"""Device fleets: the paper's units and synthetic populations.

The study used small fleets — 4× Nexus 5 (voltage bins 0–3; the bin-4 chip
died mid-study), 3× Nexus 6, 3× Nexus 6P, 5× LG G5 and 3× Google Pixel —
and the paper is explicit that its variation numbers are therefore *lower
bounds* (Section VII).  ``paper_fleet`` reconstructs those units with their
silicon placed where the paper's results put them; ``synthetic_fleet``
samples arbitrary-size populations for larger studies (the §VI future-work
direction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.device.catalog import DeviceSpec, device_spec
from repro.device.phone import Device
from repro.device.power_rails import PowerSupply
from repro.errors import ConfigurationError, UnknownModelError
from repro.rng import DEFAULT_ROOT_SEED
from repro.silicon.binning import assign_bin_index, bin_profile
from repro.silicon.transistor import SiliconProfile
from repro.silicon.variation import VariationSampler
from repro.soc.catalog import soc_by_name


@dataclass(frozen=True)
class FleetUnit:
    """One physical unit of a model.

    Exactly one of ``bin_index`` (binned-voltage SoCs) or ``percentile``
    (adaptive-voltage SoCs; 0 = slowest silicon, 100 = fastest/leakiest)
    places the unit's silicon.

    Attributes
    ----------
    model:
        Handset model name, e.g. ``"Nexus 5"``.
    serial:
        Unit identifier used in reports (the paper uses the last digits of
        device serials: device-363, device-793...).
    bin_index:
        Voltage bin of the unit's chip, for binned SoCs.
    bin_fraction:
        Position within the bin slice (0 slow edge … 1 fast edge).
    percentile:
        Population V_th percentile, for adaptive SoCs.
    """

    model: str
    serial: str
    bin_index: Optional[int] = None
    bin_fraction: float = 0.5
    percentile: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.bin_index is None) == (self.percentile is None):
            raise ConfigurationError(
                "exactly one of bin_index or percentile must be given"
            )


#: The units used in the paper's study, per model (Section IV, Table II).
#: Serial naming follows the paper where it names devices; silicon
#: placement is calibrated to the reported spreads.
PAPER_FLEETS = {
    "Nexus 5": (
        FleetUnit(model="Nexus 5", serial="bin-0", bin_index=0),
        FleetUnit(model="Nexus 5", serial="bin-1", bin_index=1),
        FleetUnit(model="Nexus 5", serial="bin-2", bin_index=2),
        FleetUnit(model="Nexus 5", serial="bin-3", bin_index=3),
    ),
    "Nexus 6": (
        # All three units landed in the same bin with nearly identical
        # silicon: the paper saw only ~2% variation on this model.
        FleetUnit(model="Nexus 6", serial="n6-a", bin_index=3, bin_fraction=0.42),
        FleetUnit(model="Nexus 6", serial="n6-b", bin_index=3, bin_fraction=0.50),
        FleetUnit(model="Nexus 6", serial="n6-c", bin_index=3, bin_fraction=0.58),
    ),
    "Nexus 6P": (
        # device-793 was the paper's best unit, device-363 its worst
        # (10% slower, 12% more energy).
        FleetUnit(model="Nexus 6P", serial="device-793", percentile=30.0),
        FleetUnit(model="Nexus 6P", serial="device-571", percentile=55.0),
        FleetUnit(model="Nexus 6P", serial="device-363", percentile=86.0),
    ),
    "LG G5": (
        FleetUnit(model="LG G5", serial="g5-114", percentile=22.0),
        FleetUnit(model="LG G5", serial="g5-207", percentile=38.0),
        FleetUnit(model="LG G5", serial="g5-332", percentile=50.0),
        FleetUnit(model="LG G5", serial="g5-409", percentile=63.0),
        FleetUnit(model="LG G5", serial="g5-588", percentile=81.0),
    ),
    "Google Pixel": (
        # device-488 was 7% faster than device-653 (paper Figure 11).
        FleetUnit(model="Google Pixel", serial="device-488", percentile=20.0),
        FleetUnit(model="Google Pixel", serial="device-520", percentile=50.0),
        FleetUnit(model="Google Pixel", serial="device-653", percentile=88.0),
    ),
}


def unit_profile(unit: FleetUnit, root_seed: int = DEFAULT_ROOT_SEED) -> SiliconProfile:
    """The silicon profile implied by a unit's placement."""
    spec = device_spec(unit.model)
    soc = soc_by_name(spec.soc_name)
    if unit.bin_index is not None:
        return bin_profile(
            process=soc.process,
            bin_count=soc.bin_count,
            bin_index=unit.bin_index,
            fraction=unit.bin_fraction,
        )
    sampler = VariationSampler(process=soc.process, root_seed=root_seed)
    assert unit.percentile is not None  # enforced by FleetUnit validation
    return sampler.from_percentile(unit.percentile)


def build_device(
    unit: FleetUnit,
    supply: Optional[PowerSupply] = None,
    root_seed: int = DEFAULT_ROOT_SEED,
    initial_temp_c: float = 25.0,
    spec: Optional[DeviceSpec] = None,
    thermal_solver: str = "euler",
) -> Device:
    """Instantiate one fleet unit as a runnable :class:`Device`."""
    if spec is None:
        spec = device_spec(unit.model)
    return Device(
        spec=spec,
        serial=unit.serial,
        profile=unit_profile(unit, root_seed),
        bin_index=unit.bin_index if unit.bin_index is not None else 0,
        supply=supply,
        root_seed=root_seed,
        initial_temp_c=initial_temp_c,
        thermal_solver=thermal_solver,
    )


def paper_fleet(
    model: str,
    root_seed: int = DEFAULT_ROOT_SEED,
    initial_temp_c: float = 25.0,
    thermal_solver: str = "euler",
) -> List[Device]:
    """The paper's units of one model, as runnable devices.

    Each device defaults to battery power; experiment runners swap in a
    Monsoon per the methodology.
    """
    return [
        build_device(
            unit,
            root_seed=root_seed,
            initial_temp_c=initial_temp_c,
            thermal_solver=thermal_solver,
        )
        for unit in paper_units(model)
    ]


def paper_units(model: str) -> Tuple[FleetUnit, ...]:
    """The paper's units of one model; an unknown model raises
    :class:`~repro.errors.UnknownModelError`."""
    try:
        return PAPER_FLEETS[model]
    except KeyError:
        raise UnknownModelError("fleet", model, tuple(PAPER_FLEETS)) from None


def synthetic_fleet(
    model: str,
    count: int,
    lot_name: str = "synthetic",
    root_seed: int = DEFAULT_ROOT_SEED,
    initial_temp_c: float = 25.0,
    thermal_solver: str = "euler",
    start_index: int = 0,
) -> List[Device]:
    """Sample ``count`` units of a model from the manufacturing lottery.

    Unlike :func:`paper_fleet`, silicon here is randomly drawn — the fleets
    a crowdsourced study (paper §VI) would encounter.  Each unit's silicon
    stream is keyed by its serial alone, so ``start_index`` slices a
    larger lot without replaying its predecessors: the units of
    ``synthetic_fleet(m, 4, start_index=4)`` are identical to units 4–7
    of ``synthetic_fleet(m, 8)`` — which is what lets a streaming crowd
    campaign materialize one cohort at a time.
    """
    if count < 1:
        raise ConfigurationError("count must be at least 1")
    if start_index < 0:
        raise ConfigurationError("start_index must be non-negative")
    spec = device_spec(model)
    soc = soc_by_name(spec.soc_name)
    sampler = VariationSampler(process=soc.process, root_seed=root_seed)
    devices = []
    for index in range(start_index, start_index + count):
        serial = f"{lot_name}-{index:03d}"
        profile = sampler.sample(spec.name, lot_name, serial)
        bin_index = assign_bin_index(soc.process, soc.bin_count, profile)
        devices.append(
            Device(
                spec=spec,
                serial=serial,
                profile=profile,
                bin_index=bin_index,
                root_seed=root_seed,
                initial_temp_c=initial_temp_c,
                thermal_solver=thermal_solver,
            )
        )
    return devices
