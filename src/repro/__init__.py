"""Orion: a power-performance simulator for interconnection networks.

A from-scratch Python reproduction of Wang, Zhu, Peh & Malik (MICRO
2002).  The package couples architectural-level parameterized power
models for router building blocks (FIFO buffers, crossbars, arbiters,
central buffers, links) with a flit-level cycle-accurate network
simulator whose microarchitectural events drive the power models.

Quick start::

    from repro import Orion, RunProtocol, preset

    orion = Orion(preset("VC16"))
    result = orion.run_uniform(0.05, RunProtocol(sample_packets=2000))
    print(result.avg_latency, result.total_power_w)

A run that may stall can return a status instead of raising::

    protocol = RunProtocol(sample_packets=2000, max_cycles=50_000,
                           on_stall="finish")
    result = orion.run_uniform(0.30, protocol)
    print(result.status)   # "ok", "stalled" or "max_cycles"

See :mod:`repro.core.presets` for the paper's named configurations and
:mod:`repro.power` for the standalone component power models.
"""

from repro.core import (
    EnergyAccountant,
    LinkConfig,
    NetworkConfig,
    Orion,
    PowerBinding,
    RouterConfig,
    RunProtocol,
    SweepResult,
    TechConfig,
    preset,
)
from repro.tech import Technology

__version__ = "1.1.0"

from repro.exp import (
    ExperimentResult,
    ExperimentSpec,
    ResultCache,
    RunPoint,
    TrafficSpec,
    run_experiment,
)

__all__ = [
    "EnergyAccountant",
    "ExperimentResult",
    "ExperimentSpec",
    "LinkConfig",
    "NetworkConfig",
    "Orion",
    "PowerBinding",
    "ResultCache",
    "RouterConfig",
    "RunPoint",
    "RunProtocol",
    "SweepResult",
    "TechConfig",
    "Technology",
    "TrafficSpec",
    "preset",
    "run_experiment",
    "__version__",
]
