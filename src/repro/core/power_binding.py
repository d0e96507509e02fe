"""Binding between simulator events and component power models.

One counting binding serves both switching-activity modes.  Routers bump
per-node integer event counters (arbitrations bucketed by kind and active
requests) and, when a flit carries a payload (``activity_mode="data"``),
hand it to :meth:`PowerBinding.observe`.  That keeps the last payload at
each site — buffer per input port, crossbar and link per output port,
central-buffer write and read per node — and sums per (node, event) the
observed events and their switching count ``s``: the Hamming distance to
the previous payload, ``min(d, W - d)`` on a bus-invert link.  A first
sighting stays unobserved.  This is the paper's "switching activity
factors delta_x are monitored and calculated through simulation", kept
as integers.

Every data-dependent power model is affine in ``s``, so the integers are
exact: ``n`` events, ``n_obs`` of them observed with switching sum ``S``,
cost ``(n - n_obs)*E_avg + n_obs*E(0) + S*(E(1) - E(0))`` with the
constants of :class:`repro.core.power_models.RouterPowerModels`.
Counters are priced at flush time only: by
:meth:`PowerBinding.telemetry_view` mid-run, and by
:meth:`PowerBinding.finalize` into the shared
:class:`repro.core.events.EnergyAccountant` at the end.
"""

from __future__ import annotations

from typing import List

from repro.core import events as ev
from repro.core.config import NetworkConfig
from repro.core.events import EnergyAccountant
from repro.core.power_models import (
    PORTS,
    RouterPowerModels,
    arbiter_requesters,
)
from repro.power.link import BusInvertLinkPower

#: Counted events other than arbitration, in pricing order.
_EVENTS = (ev.BUFFER_WRITE, ev.BUFFER_READ, ev.XBAR_TRAVERSAL,
           ev.LINK_TRAVERSAL, ev.CB_WRITE, ev.CB_READ)


class NullBinding:
    """Per-node integer event counters with no energy model — the whole
    binding of a pure-performance run, and the base of
    :class:`PowerBinding`.

    The lists are zeroed in place, so routers' hot loops cache them and
    bump ``n_<event>[node]`` or ``n_arb[kind][node][requests]`` directly
    (``kind`` is ``"switch"``, ``"vc"``, ``"local"`` or, on central
    routers, ``"cb"``), handing a flit's payload to :meth:`observe` when
    it carries one.
    """

    def __init__(self, config: NetworkConfig) -> None:
        n = config.num_nodes
        self.n_buf_write = [0] * n
        self.n_buf_read = [0] * n
        self.n_xbar = [0] * n
        self.n_link = [0] * n
        self.n_cb_write = [0] * n
        self.n_cb_read = [0] * n
        #: kind -> per-node buckets indexed by active-request count.
        self.n_arb = {
            kind: [[0] * (requesters + 1) for _ in range(n)]
            for kind, requesters in arbiter_requesters(config.router).items()
        }
        self._counts = dict(zip(_EVENTS, (
            self.n_buf_write, self.n_buf_read, self.n_xbar, self.n_link,
            self.n_cb_write, self.n_cb_read)))
        #: Every list :meth:`_zero` clears.
        self._counters: List[List[int]] = list(self._counts.values()) + [
            buckets for per_node in self.n_arb.values()
            for buckets in per_node]

    def _zero(self) -> None:
        for counts in self._counters:
            counts[:] = [0] * len(counts)

    def reset(self) -> None:
        """Zero the counters (called at the end of warm-up)."""
        self._zero()

    def reset_run(self) -> None:
        """Restore construction-time state for a brand-new run."""
        self.reset()

    def finalize(self, measured_cycles: int, links_per_node) -> None:
        """No energy model: nothing to price."""

    def telemetry_view(self):
        """No energy model: telemetry records traffic columns only."""
        return None, None

    def observe(self, node: int, event: str, port: int, payload: int) -> None:
        """A payload seen at one event site (see :class:`PowerBinding`)."""


class PowerBinding(NullBinding, RouterPowerModels):
    """Event counting and pricing for one network configuration."""

    def __init__(self, config: NetworkConfig,
                 accountant: EnergyAccountant) -> None:
        NullBinding.__init__(self, config)
        RouterPowerModels.__init__(self, config)
        self.accountant = accountant
        n = config.num_nodes
        fold = config.router.flit_bits \
            if isinstance(self.link_model, BusInvertLinkPower) else 0
        #: event -> (last payload per ``node*PORTS + port`` site, observed
        #: events per node, summed switching per node, bus-invert width
        #: or 0).
        self._sites = {
            event: ([None] * (n * PORTS), [0] * n, [0] * n,
                    fold if event == ev.LINK_TRAVERSAL else 0)
            for event in _EVENTS}
        for _, observed, switched, _ in self._sites.values():
            self._counters += [observed, switched]

    # --- measurement control -----------------------------------------------------

    def reset(self) -> None:
        """Zero the measurement state (called at the end of warm-up).

        Payload history survives on purpose: switching activity depends
        on the previous value on each wire, which the warm-up
        established.
        """
        self._zero()
        self.accountant.reset()

    def reset_run(self) -> None:
        """Restore construction-time state for a brand-new run
        (simulation-context reuse): unlike :meth:`reset`, the payload
        history is dropped too — a fresh binding starts with empty
        wires."""
        self.reset()
        for last, _, _, _ in self._sites.values():
            last[:] = [None] * len(last)

    # --- activity observation -----------------------------------------------------

    def observe(self, node: int, event: str, port: int, payload: int) -> None:
        """A payload seen at the site of ``event`` on ``port`` of
        ``node`` (0 for the central buffer): with a previous payload
        there, count one observed event and its switched bits."""
        last, observed, switched, fold = self._sites[event]
        site = node * PORTS + port
        previous = last[site]
        last[site] = payload
        if previous is not None:
            s = (previous ^ payload).bit_count()
            if fold and s + s > fold:
                s = fold - s
            observed[node] += 1
            switched[node] += s

    # --- pricing -------------------------------------------------------------------

    def _priced(self):
        """Yield ``(node, component, event, energy_j, count)`` for the
        counters accumulated since the last flush — the one joule
        conversion behind :meth:`finalize` and :meth:`telemetry_view`."""
        for event in _EVENTS:
            e_avg, e_zero, slope = self._prices[event]
            _, observed, switched, _ = self._sites[event]
            component = ev.EVENT_COMPONENT[event]
            for node, count in enumerate(self._counts[event]):
                if count:
                    seen = observed[node]
                    energy = ((count - seen) * e_avg + seen * e_zero
                              + switched[node] * slope)
                    yield node, component, event, energy, count
        for kind, per_node in self.n_arb.items():
            table = self._arb_energy[kind]
            for node, buckets in enumerate(per_node):
                count = sum(buckets)
                if count:
                    energy = sum(c * table[i]
                                 for i, c in enumerate(buckets) if c)
                    yield node, ev.ARBITER, ev.ARBITRATION, energy, count

    def telemetry_view(self):
        """Cumulative per-node (energies, counts) since the last reset:
        the accountant's tables plus the priced, not-yet-flushed
        counters.  Windowed telemetry diffs consecutive views, so summed
        windows telescope to the run totals."""
        energies, counts = self.accountant.snapshot()
        for node, component, event, energy, count in self._priced():
            energies[node][component] += energy
            counts[node][event] += count
        return energies, counts

    def finalize(self, measured_cycles: int,
                 links_per_node: List[int]) -> None:
        """Flush the priced counters into the accountant, then charge
        each node its traffic-insensitive energy over the measured
        window: chip-to-chip links burn constant power whether or not
        flits flow (each node pays for its outgoing links), and leakage
        and clock power, when enabled, are charged to every node."""
        if measured_cycles < 0:
            raise ValueError(
                f"measured_cycles must be >= 0, got {measured_cycles}"
            )
        add = self.accountant.add
        for node, component, event, energy, count in self._priced():
            add(node, component, event, energy, count=count)
        self._zero()
        window_s = measured_cycles / self.tech.frequency_hz
        if self._e_link_idle > 0.0:
            for node, degree in enumerate(links_per_node):
                energy = degree * self._e_link_idle * measured_cycles
                add(node, ev.LINK, ev.LINK_TRAVERSAL, energy, count=0)
        if self._static_w:
            for node in range(len(links_per_node)):
                for component, watts in self._static_w.items():
                    if watts > 0.0:
                        add(node, component, ev.BUFFER_WRITE,
                            watts * window_s, count=0)
        if self._e_clock_cycle > 0.0:
            energy = self._e_clock_cycle * measured_cycles
            for node in range(len(links_per_node)):
                add(node, ev.CLOCK, ev.BUFFER_WRITE, energy, count=0)
