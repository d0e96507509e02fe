"""Configuration dataclasses for networks, routers, links and technology.

These are the "plug-and-play" knobs of Orion: a
:class:`NetworkConfig` fully determines a simulatable power-performance
model.  :mod:`repro.core.presets` provides the paper's named
configurations (WH64, VC16, VC64, VC128, CB, XB).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.tech.technology import Technology

ROUTER_KINDS = ("wormhole", "vc", "speculative_vc", "central")
LINK_KINDS = ("on_chip", "chip_to_chip")
LINK_ENCODINGS = ("none", "bus_invert")
TOPOLOGY_KINDS = ("torus", "mesh")
ACTIVITY_MODES = ("average", "data")
VC_CLASS_MODES = ("none", "dateline")
ARBITER_TYPES = ("matrix", "round_robin", "queuing")
CROSSBAR_TYPES = ("matrix", "mux_tree")
TIE_BREAKS = ("avoid_wrap", "even")


@dataclass(frozen=True)
class TechConfig:
    """Process node and operating point."""

    feature_size_um: float = 0.1
    vdd: float = 1.2
    frequency_hz: float = 2.0e9

    def build(self) -> Technology:
        """Instantiate the capacitance substrate."""
        return Technology(self.feature_size_um, vdd=self.vdd,
                          frequency_hz=self.frequency_hz)


@dataclass(frozen=True)
class RouterConfig:
    """Router microarchitecture parameters.

    ``buffer_depth`` is flits per input FIFO for wormhole/central routers
    and flits *per virtual channel* for VC routers (the paper quotes VC
    configs as "8-flit input buffer per VC").  VC routers store all their
    VCs' flits in one SRAM array per port, so the physical buffer at each
    port is ``num_vcs * buffer_depth`` flits — which is why VC64 and WH64
    share identical buffer power (Figure 5b).
    """

    kind: str = "wormhole"
    flit_bits: int = 32
    buffer_depth: int = 4
    num_vcs: int = 1
    arbiter_type: str = "matrix"
    crossbar_type: str = "matrix"
    #: Dateline VC classes for deadlock freedom on large tori ("dateline")
    #: or unrestricted VC use ("none").
    vc_class_mode: str = "none"
    # Central-buffer parameters (kind == "central").
    cb_rows: int = 2560
    cb_banks: int = 4
    cb_read_ports: int = 2
    cb_write_ports: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ROUTER_KINDS:
            raise ValueError(f"unknown router kind {self.kind!r}; "
                             f"options: {ROUTER_KINDS}")
        if self.flit_bits < 1:
            raise ValueError(f"flit_bits must be >= 1, got {self.flit_bits}")
        if self.buffer_depth < 1:
            raise ValueError(
                f"buffer_depth must be >= 1, got {self.buffer_depth}"
            )
        if self.num_vcs < 1:
            raise ValueError(f"num_vcs must be >= 1, got {self.num_vcs}")
        if self.is_vc_kind and self.num_vcs < 2 and \
                self.vc_class_mode == "dateline":
            raise ValueError("dateline VC classes need num_vcs >= 2")
        if self.arbiter_type not in ARBITER_TYPES:
            raise ValueError(f"unknown arbiter type {self.arbiter_type!r}; "
                             f"options: {ARBITER_TYPES}")
        if self.crossbar_type not in CROSSBAR_TYPES:
            raise ValueError(f"unknown crossbar type {self.crossbar_type!r}; "
                             f"options: {CROSSBAR_TYPES}")
        if self.vc_class_mode not in VC_CLASS_MODES:
            raise ValueError(f"unknown vc_class_mode {self.vc_class_mode!r}; "
                             f"options: {VC_CLASS_MODES}")
        if self.kind == "central":
            if self.cb_rows < 1 or self.cb_banks < 1:
                raise ValueError("central buffer needs >= 1 row and bank")
            if self.cb_read_ports < 1 or self.cb_write_ports < 1:
                raise ValueError("central buffer needs read and write ports")

    @property
    def is_vc_kind(self) -> bool:
        """Whether this router keeps per-port virtual channels."""
        return self.kind in ("vc", "speculative_vc")

    @property
    def buffer_flits_per_port(self) -> int:
        """Physical flits stored per input port."""
        if self.is_vc_kind:
            return self.num_vcs * self.buffer_depth
        return self.buffer_depth

    @property
    def cb_capacity_flits(self) -> int:
        """Central buffer total capacity (central routers only)."""
        return self.cb_rows * self.cb_banks


@dataclass(frozen=True)
class RunProtocol:
    """The measurement protocol of one simulation run (section 4.1).

    One frozen object holds every per-run knob — warm-up length, sample
    size, completion/watchdog limits, the traffic RNG seed and the
    observability switches — so runs, sweeps and experiment grids all
    share a single definition instead of duplicated keyword lists.
    """

    #: Cycles excluded from latency and energy measurement (paper: 1000).
    warmup_cycles: int = 1000
    #: Packets tagged after warm-up whose delivery ends the run
    #: (paper: 10000).
    sample_packets: int = 10000
    #: Hard cycle limit before :class:`SimulationTimeout`.
    max_cycles: int = 2_000_000
    #: Idle-cycle window before :class:`DeadlockError`.
    watchdog_cycles: int = 20_000
    #: Seed for the traffic pattern's random stream.
    seed: int = 1
    #: Attach power models and account energy per event.
    collect_power: bool = True
    #: Run the network's flit-conservation ``audit()`` every this many
    #: cycles (0 disables auditing).
    audit_every: int = 0
    #: Record windowed energy, event, channel-utilisation and occupancy
    #: telemetry every this many measured cycles (0 disables
    #: recording).  See :mod:`repro.telemetry`.
    telemetry_window: int = 0
    #: What a watchdog-detected stall (deadlock or max-cycles
    #: exhaustion) does: "raise" (historical — DeadlockError /
    #: SimulationTimeout) or "finish" (return the partial result with
    #: :attr:`SimulationResult.status` set to "stalled"/"max_cycles").
    on_stall: str = "raise"

    def __post_init__(self) -> None:
        if self.warmup_cycles < 0:
            raise ValueError(
                f"warmup_cycles must be >= 0, got {self.warmup_cycles}"
            )
        if self.sample_packets < 1:
            raise ValueError(
                f"sample_packets must be >= 1, got {self.sample_packets}"
            )
        if self.max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {self.max_cycles}")
        if self.watchdog_cycles < 1:
            raise ValueError(
                f"watchdog_cycles must be >= 1, got {self.watchdog_cycles}"
            )
        if self.audit_every < 0:
            raise ValueError(
                f"audit_every must be >= 0, got {self.audit_every}"
            )
        if self.telemetry_window < 0:
            raise ValueError(
                f"telemetry_window must be >= 0, got {self.telemetry_window}"
            )
        if self.on_stall not in ("raise", "finish"):
            raise ValueError(f"unknown on_stall {self.on_stall!r}; "
                             f"options: ('raise', 'finish')")

    def with_(self, **changes) -> "RunProtocol":
        """A copy with fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class LinkConfig:
    """Inter-router link parameters.

    On-chip links are capacitive (energy per bit toggle over
    ``length_mm``); chip-to-chip links burn constant ``power_watts``
    regardless of traffic (differential signalling, section 4.4).
    """

    kind: str = "on_chip"
    length_mm: float = 3.0
    power_watts: float = 3.0
    #: Link data encoding: "none", or "bus_invert" (on-chip only) to
    #: model bus-invert low-power coding.
    encoding: str = "none"

    def __post_init__(self) -> None:
        if self.kind not in LINK_KINDS:
            raise ValueError(f"unknown link kind {self.kind!r}; "
                             f"options: {LINK_KINDS}")
        if self.kind == "on_chip" and self.length_mm <= 0:
            raise ValueError(f"length_mm must be positive, got {self.length_mm}")
        if self.kind == "chip_to_chip" and self.power_watts < 0:
            raise ValueError(
                f"power_watts must be >= 0, got {self.power_watts}"
            )
        if self.encoding not in LINK_ENCODINGS:
            raise ValueError(f"unknown link encoding {self.encoding!r}; "
                             f"options: {LINK_ENCODINGS}")
        if self.encoding == "bus_invert" and self.kind != "on_chip":
            raise ValueError("bus-invert coding applies to on-chip links "
                             "(chip-to-chip links are load-invariant)")


@dataclass(frozen=True)
class NetworkConfig:
    """A complete network: topology + router + link + technology."""

    topology: str = "torus"
    width: int = 4
    height: int = 4
    router: RouterConfig = field(default_factory=RouterConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    tech: TechConfig = field(default_factory=TechConfig)
    packet_length_flits: int = 5
    #: Torus tie-break policy for equidistant minimal routes; see
    #: :mod:`repro.sim.routing`.
    tie_break: str = "avoid_wrap"
    #: "average" charges random-data expected switching per event;
    #: "data" tracks flit payload Hamming distances.
    activity_mode: str = "average"
    #: Add static (leakage) power per the Butts-Sohi model — an
    #: extension beyond the paper's dynamic-only accounting (see
    #: :mod:`repro.power.leakage`).
    include_leakage: bool = False
    #: Add clock-tree power (extension; see :mod:`repro.power.clock`).
    include_clock: bool = False

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGY_KINDS:
            raise ValueError(f"unknown topology {self.topology!r}; "
                             f"options: {TOPOLOGY_KINDS}")
        if self.packet_length_flits < 1:
            raise ValueError(
                f"packet_length_flits must be >= 1, got "
                f"{self.packet_length_flits}"
            )
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(f"unknown tie_break {self.tie_break!r}; "
                             f"options: {TIE_BREAKS}")
        if self.activity_mode not in ACTIVITY_MODES:
            raise ValueError(f"unknown activity_mode {self.activity_mode!r}; "
                             f"options: {ACTIVITY_MODES}")

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def with_router(self, **changes) -> "NetworkConfig":
        """A copy with router parameters replaced."""
        return replace(self, router=replace(self.router, **changes))

    def with_(self, **changes) -> "NetworkConfig":
        """A copy with top-level fields replaced."""
        return replace(self, **changes)
