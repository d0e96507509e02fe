"""The Orion facade: build, run and sweep power-performance simulations.

This is the library's main entry point.  An :class:`Orion` instance wraps
one :class:`NetworkConfig`; its methods cover the paper's three usage
categories (Figure 3):

1. trade off configurations — :meth:`run` / :meth:`sweep_traffic` two
   configs and compare latency and power;
2. explore workloads — pass different traffic patterns to the same
   config;
3. evaluate new microarchitectures — define a new ``RouterConfig`` kind
   plus power models and reuse the same driver.

Per-run measurement knobs live in one :class:`RunProtocol` object — the
single source of truth for how a run is measured — which every
run/sweep method takes as ``protocol`` (default: the paper's protocol).
Sweeps execute through the
:mod:`repro.exp` orchestrator, so any registered traffic kind can be
swept, fanned out over ``processes`` worker processes, and optionally
served from an on-disk result cache.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.config import NetworkConfig, RunProtocol
from repro.core.power_binding import PowerBinding
from repro.core.events import EnergyAccountant
from repro.core.report import SweepResult
from repro.sim.engine import Simulation, SimulationResult
from repro.sim.traffic import TrafficPattern, make_traffic

class Orion:
    """Power-performance simulator for one network configuration."""

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config

    # --- single runs --------------------------------------------------------

    def run_uniform(self, rate: float,
                    protocol: Optional[RunProtocol] = None
                    ) -> SimulationResult:
        """Run uniform random traffic at ``rate`` packets/cycle/node."""
        return self.run_traffic("uniform", rate, protocol)

    def run_broadcast(self, source: int, rate: float,
                      protocol: Optional[RunProtocol] = None
                      ) -> SimulationResult:
        """Run single-source broadcast traffic (section 4.3)."""
        return self.run_traffic("broadcast", rate, protocol, source=source)

    def run_traffic(self, traffic: str, rate: float,
                    protocol: Optional[RunProtocol] = None,
                    **traffic_params) -> SimulationResult:
        """Run any registered traffic kind (see ``TRAFFIC_REGISTRY``);
        ``traffic_params`` go to the traffic constructor."""
        protocol = protocol or RunProtocol()
        pattern = make_traffic(traffic, self._topo(), rate,
                               seed=protocol.seed, **traffic_params)
        return self.run(pattern, protocol)

    def run(self, traffic: TrafficPattern,
            protocol: Optional[RunProtocol] = None) -> SimulationResult:
        """Run an arbitrary traffic pattern to the paper's protocol."""
        return Simulation(self.config, traffic, protocol).run()

    # --- sweeps ----------------------------------------------------------------

    def sweep_uniform(self, rates: Sequence[float],
                      protocol: Optional[RunProtocol] = None, *,
                      label: Optional[str] = None,
                      keep_results: bool = False,
                      processes: int = 1,
                      cache=None) -> SweepResult:
        """Latency/power curve over injection rates, uniform traffic —
        the x-axes of Figures 5 and 7.

        ``processes > 1`` runs the rate points concurrently in a
        multiprocessing pool; ``cache`` (a ``ResultCache`` or directory
        path) serves repeated points from disk.
        """
        return self.sweep_traffic("uniform", rates, protocol, label=label,
                                  keep_results=keep_results,
                                  processes=processes, cache=cache)

    def sweep_broadcast(self, source: int, rates: Sequence[float],
                        protocol: Optional[RunProtocol] = None, *,
                        label: Optional[str] = None,
                        keep_results: bool = False,
                        processes: int = 1,
                        cache=None) -> SweepResult:
        """Latency/power curve over injection rates, broadcast traffic."""
        return self.sweep_traffic("broadcast", rates, protocol,
                                  source=source, label=label,
                                  keep_results=keep_results,
                                  processes=processes, cache=cache)

    def sweep_traffic(self, traffic: str, rates: Sequence[float],
                      protocol: Optional[RunProtocol] = None, *,
                      label: Optional[str] = None,
                      keep_results: bool = False,
                      processes: int = 1,
                      cache=None,
                      progress=None,
                      on_error: str = "raise",
                      point_timeout: Optional[float] = None,
                      retries: int = 0,
                      **traffic_params) -> SweepResult:
        """Sweep any registered traffic kind over injection rates
        (``traffic_params`` go to the traffic constructor).

        Executes through the :mod:`repro.exp` orchestrator — serial and
        parallel runs produce bit-identical points, and failures at one
        rate propagate by default (``on_error="record"`` isolates them
        instead; failed points surface on ``SweepResult.failed_points``).
        ``point_timeout`` bounds each point's wall-clock seconds and
        ``retries`` re-runs points whose worker crashed (see
        :func:`repro.exp.run_points`).
        """
        from repro.exp import (
            ResultCache,
            RunPoint,
            TrafficSpec,
            outcomes_to_sweep,
            run_points,
        )

        if not rates:
            raise ValueError("sweep needs at least one rate")
        protocol = protocol or RunProtocol()
        label = label or self.config.router.kind
        spec = TrafficSpec.of(traffic, **traffic_params)
        points = [RunPoint(config=self.config, traffic=spec, rate=rate,
                           protocol=protocol, label=label)
                  for rate in rates]
        if isinstance(cache, str):
            cache = ResultCache(cache)
        outcomes = run_points(points, processes=processes, cache=cache,
                              keep_results=keep_results, progress=progress,
                              on_error=on_error,
                              point_timeout=point_timeout, retries=retries)
        return outcomes_to_sweep(outcomes, label=label)

    # --- analytic estimation ------------------------------------------------------

    def estimate_uniform(self, rate: float, *,
                         with_saturation: bool = True):
        """Closed-form estimate for uniform traffic at ``rate``
        packets/cycle/node — milliseconds instead of a simulation."""
        return self.estimate_traffic("uniform", rate,
                                     with_saturation=with_saturation)

    def estimate_traffic(self, traffic: str, rate: float, *,
                         with_saturation: bool = True,
                         **traffic_params):
        """Closed-form latency/power/saturation estimate of one
        operating point (see :mod:`repro.analytic`).  Mirrors
        :meth:`run_traffic`: same traffic kinds, same rate units, no
        protocol — nothing is simulated."""
        from repro.analytic import estimate
        return estimate(self.config, traffic, rate,
                        with_saturation=with_saturation, **traffic_params)

    def estimate_saturation(self, traffic: str = "uniform",
                            **traffic_params):
        """Predicted saturation rate of a traffic kind on this config
        (the paper's twice-zero-load-latency criterion, closed form)."""
        from repro.analytic import estimate_saturation
        return estimate_saturation(self.config, traffic, **traffic_params)

    # --- standalone power analysis ----------------------------------------------

    def flit_energy_walkthrough(self) -> Dict[str, float]:
        """The section 3.3 walkthrough: per-event energies (J) of one
        head flit passing through a router and its outgoing link.

        ``E_flit = E_wrt + E_arb + E_read + E_xb + E_link``.
        """
        accountant = EnergyAccountant(self.config.num_nodes)
        binding = PowerBinding(self.config, accountant)
        energies = {
            "E_wrt": binding.buffer_model.write_energy(),
            "E_arb": binding.switch_arbiter_model.arbitration_energy(1),
            "E_read": binding.buffer_model.read_energy(),
            "E_xb": binding.crossbar_model.traversal_energy(),
            "E_link": binding.link_model.traversal_energy(),
        }
        energies["E_flit"] = sum(energies.values())
        return energies

    def power_models(self) -> PowerBinding:
        """The configuration's power models, usable standalone (the
        paper's "separate power analysis tool" release mode)."""
        return PowerBinding(self.config,
                            EnergyAccountant(self.config.num_nodes))

    # --- helpers ------------------------------------------------------------------

    def _topo(self):
        from repro.sim.topology import topology_for
        return topology_for(self.config)
