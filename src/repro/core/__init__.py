"""Orion core: configuration, events, power binding, facade, reports."""

from repro.core.config import (
    LinkConfig,
    NetworkConfig,
    RouterConfig,
    RunProtocol,
    TechConfig,
)
from repro.core.events import EnergyAccountant
from repro.core.orion import Orion
from repro.core.power_binding import NullBinding, PowerBinding
from repro.core.presets import preset, PRESETS
from repro.core.report import (
    SweepPoint,
    SweepResult,
    breakdown_table,
    comparison_table,
    format_power,
    spatial_table,
)

__all__ = [
    "LinkConfig",
    "NetworkConfig",
    "RouterConfig",
    "RunProtocol",
    "TechConfig",
    "EnergyAccountant",
    "Orion",
    "NullBinding",
    "PowerBinding",
    "preset",
    "PRESETS",
    "SweepPoint",
    "SweepResult",
    "breakdown_table",
    "comparison_table",
    "format_power",
    "spatial_table",
]
