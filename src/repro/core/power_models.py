"""The component power models of one network configuration.

:class:`RouterPowerModels` instantiates, from a :class:`NetworkConfig`,
the power models of one router and its outgoing link — input buffer,
crossbar, arbiters, central buffer, link, and the optional leakage and
clock extensions — and the constants events are priced with: each
event's average-mode energy, the affine switching coefficients of the
data-dependent ones, and arbitration energy per active request count.
:class:`repro.core.power_binding.PowerBinding` prices its event counters
with them; :mod:`repro.analytic` multiplies them by predicted event
rates.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core import events as ev
from repro.core.config import NetworkConfig, RouterConfig
from repro.power.arbiter import (
    MatrixArbiterPower,
    QueuingArbiterPower,
    RoundRobinArbiterPower,
)
from repro.power.buffer import FIFOBufferPower
from repro.power.central_buffer import CentralBufferPower
from repro.power.crossbar import MatrixCrossbarPower, MuxTreeCrossbarPower
from repro.power.link import (
    BusInvertLinkPower,
    ChipToChipLinkPower,
    OnChipLinkPower,
)

_ARBITER_POWER_CLASSES = {
    "matrix": MatrixArbiterPower,
    "round_robin": RoundRobinArbiterPower,
    "queuing": QueuingArbiterPower,
}

PORTS = 5


def arbiter_requesters(rc: RouterConfig) -> Dict[str, int]:
    """Requesters per arbiter kind: ``switch`` (output port, P-1 inputs,
    no u-turns), ``vc`` (VC allocator over (P-1)*V input VCs), ``local``
    (per-input V:1 switch-allocation stage) and, on central routers,
    ``cb`` (all P ports compete for the shared memory's ports)."""
    requesters = {"switch": PORTS - 1,
                  "vc": max(1, (PORTS - 1) * rc.num_vcs),
                  "local": max(1, rc.num_vcs)}
    if rc.kind == "central":
        requesters["cb"] = PORTS
    return requesters


def _affine(energy) -> Tuple[float, float, float]:
    """``(E_avg, E(0), E(1) - E(0))`` of an energy function
    ``energy(old, new)``: its random-data constant, and the intercept and
    slope of its affine dependence on switched bits."""
    e0 = energy(0, 0)
    return energy(), e0, energy(0, 1) - e0


class RouterPowerModels:
    """Component power models and event prices for one configuration."""

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        self.tech = config.tech.build()
        rc = config.router
        # --- input buffer model (one SRAM array per port) ---
        self.buffer_model = FIFOBufferPower(
            self.tech,
            depth_flits=rc.buffer_flits_per_port,
            flit_bits=rc.flit_bits,
        )
        # --- crossbar (wormhole / VC routers) ---
        if rc.crossbar_type == "matrix":
            self.crossbar_model = MatrixCrossbarPower(
                self.tech, inputs=PORTS, outputs=PORTS,
                width_bits=rc.flit_bits)
        else:
            self.crossbar_model = MuxTreeCrossbarPower(
                self.tech, inputs=PORTS, outputs=PORTS,
                width_bits=rc.flit_bits)
        xb_ctrl = self.crossbar_model.control_line_energy
        # --- arbiters ---
        arb_cls = _ARBITER_POWER_CLASSES[rc.arbiter_type]
        requesters = arbiter_requesters(rc)
        self.switch_arbiter_model = arb_cls(
            self.tech, requesters=requesters["switch"],
            xbar_control_energy=xb_ctrl)
        # VC-allocator and V:1 grants drive no crossbar control lines.
        self.vc_arbiter_model = arb_cls(
            self.tech, requesters=requesters["vc"], xbar_control_energy=0.0)
        self.local_arbiter_model = arb_cls(
            self.tech, requesters=requesters["local"],
            xbar_control_energy=0.0)
        # --- central buffer (central routers) ---
        if rc.kind == "central":
            self.central_model = CentralBufferPower(
                self.tech,
                rows=rc.cb_rows,
                banks=rc.cb_banks,
                flit_bits=rc.flit_bits,
                read_ports=rc.cb_read_ports,
                write_ports=rc.cb_write_ports,
                router_ports=PORTS,
            )
            self.cb_arbiter_model = arb_cls(
                self.tech, requesters=requesters["cb"],
                xbar_control_energy=(
                    self.central_model.input_crossbar.control_line_energy))
        else:
            self.central_model = None
            self.cb_arbiter_model = None
        # --- link ---
        if config.link.kind == "on_chip":
            link_cls = BusInvertLinkPower \
                if config.link.encoding == "bus_invert" else OnChipLinkPower
            self.link_model = link_cls(
                self.tech,
                length_mm=config.link.length_mm,
                width_bits=rc.flit_bits,
            )
        else:
            self.link_model = ChipToChipLinkPower(
                self.tech,
                power_watts=config.link.power_watts,
                width_bits=rc.flit_bits,
            )
        self._e_link_idle = self.link_model.idle_energy_per_cycle()
        # --- static power (optional extension) ---
        if config.include_leakage:
            self._static_w = self._static_power_per_node()
        else:
            self._static_w = {}
        # --- clock power (optional extension) ---
        if config.include_clock:
            self.clock_model = self._build_clock_model()
            self._e_clock_cycle = self.clock_model.energy_per_cycle()
        else:
            self.clock_model = None
            self._e_clock_cycle = 0.0
        # --- event prices ---
        arbiters = {"switch": self.switch_arbiter_model,
                    "vc": self.vc_arbiter_model,
                    "local": self.local_arbiter_model,
                    "cb": self.cb_arbiter_model}
        #: kind -> per-arbitration energy indexed by active requests.
        self._arb_energy = {
            kind: [arbiters[kind].arbitration_energy(r)
                   for r in range(count + 1)]
            for kind, count in requesters.items()}
        cb = self.central_model
        no_cb = (0.0, 0.0, 0.0)
        #: event -> (E_avg, E(0), E(1) - E(0)), in pricing order.
        self._prices = {
            ev.BUFFER_WRITE: _affine(self.buffer_model.write_energy),
            ev.BUFFER_READ: (self.buffer_model.read_energy(), 0.0, 0.0),
            ev.XBAR_TRAVERSAL: _affine(self.crossbar_model.traversal_energy),
            ev.LINK_TRAVERSAL: _affine(self.link_model.traversal_energy),
            ev.CB_WRITE: _affine(cb.write_energy) if cb else no_cb,
            ev.CB_READ: _affine(cb.read_energy) if cb else no_cb,
        }

    # --- analytic access ---------------------------------------------------------

    def event_energies(self, requests: int = 1) -> Dict[str, float]:
        """Average-mode energy per event (joules), keyed by event kind.

        Arbitration energies are read at ``requests`` active requesters
        (1 = the uncontended case analytic models assume at low load).
        The analytic estimator multiplies these by predicted event rates.
        """
        energies = {event: price[0] for event, price in self._prices.items()}
        for kind in ("switch", "vc", "local", "cb"):
            table = self._arb_energy.get(kind, [0.0])
            energies[f"{kind}_arb"] = table[min(requests, len(table) - 1)]
        return energies

    def constant_power_w(self, links_per_node: List[int]) -> Dict[str, float]:
        """Traffic-insensitive power (watts) by component, network-wide —
        the closed-form equivalent of the binding's ``finalize``: idle
        link power on every outgoing link, optional leakage, optional
        clock."""
        freq = self.tech.frequency_hz
        num_nodes = len(links_per_node)
        constant: Dict[str, float] = {}
        if self._e_link_idle > 0.0:
            constant[ev.LINK] = (self._e_link_idle * freq *
                                 sum(links_per_node))
        for component, watts in self._static_w.items():
            if watts > 0.0:
                constant[component] = (constant.get(component, 0.0) +
                                       watts * num_nodes)
        if self._e_clock_cycle > 0.0:
            constant[ev.CLOCK] = self._e_clock_cycle * freq * num_nodes
        return constant

    # --- optional extensions -------------------------------------------------------

    def _static_power_per_node(self) -> Dict[str, float]:
        """Per-node leakage power (W) by component category."""
        from repro.power import leakage
        rc = self.config.router
        static = {}
        buffers = PORTS * leakage.buffer_width_um(self.buffer_model)
        static[ev.INPUT_BUFFER] = leakage.static_power(self.tech, buffers)
        if rc.kind == "central":
            static[ev.CENTRAL_BUFFER] = leakage.static_power(
                self.tech,
                leakage.central_buffer_width_um(self.central_model))
            arb_width = 2 * leakage.arbiter_width_um(self.cb_arbiter_model)
            static[ev.CROSSBAR] = 0.0
        else:
            static[ev.CROSSBAR] = leakage.static_power(
                self.tech, leakage.crossbar_width_um(self.crossbar_model))
            arb_width = PORTS * leakage.arbiter_width_um(
                self.switch_arbiter_model)
            if rc.is_vc_kind:
                arb_width += PORTS * rc.num_vcs * \
                    leakage.arbiter_width_um(self.vc_arbiter_model)
                arb_width += PORTS * leakage.arbiter_width_um(
                    self.local_arbiter_model)
            static[ev.CENTRAL_BUFFER] = 0.0
        static[ev.ARBITER] = leakage.static_power(self.tech, arb_width)
        return static

    def _build_clock_model(self):
        """Per-router clock model: pipeline-register bits plus arbiter
        state over the router's silicon area."""
        from repro.power import area
        from repro.power.clock import ClockPower
        rc = self.config.router
        stages = {"wormhole": 2, "vc": 3, "speculative_vc": 2,
                  "central": 3}[rc.kind]
        bits = PORTS * rc.flit_bits * stages
        bits += PORTS * self.switch_arbiter_model.requesters ** 2 // 2
        if rc.is_vc_kind:
            bits += PORTS * rc.num_vcs  # allocator state, coarse
        if rc.kind == "central":
            router_area = area.cb_router_area_um2(
                self.central_model, self.buffer_model, PORTS)
        else:
            router_area = area.xb_router_area_um2(
                self.buffer_model, self.crossbar_model, PORTS)
        return ClockPower(self.tech, registered_bits=bits,
                          area_um2=router_area)
