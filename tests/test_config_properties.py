"""Property-based tests over the configuration space: any valid config
must build, simulate a little traffic, and keep its invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    LinkConfig,
    NetworkConfig,
    RouterConfig,
    TechConfig,
)
from repro.core.events import EnergyAccountant
from repro.core.power_binding import PowerBinding
from repro.delay import RouterDelayModel
from repro.sim.network import Network

router_kinds = st.sampled_from(["wormhole", "vc", "speculative_vc",
                                "central"])
arbiter_types = st.sampled_from(["matrix", "round_robin", "queuing"])
crossbar_types = st.sampled_from(["matrix", "mux_tree"])
features = st.sampled_from([0.25, 0.18, 0.13, 0.10, 0.07])


@st.composite
def router_configs(draw):
    kind = draw(router_kinds)
    num_vcs = draw(st.integers(2, 4)) if kind in ("vc", "speculative_vc") \
        else 1
    return RouterConfig(
        kind=kind,
        flit_bits=draw(st.sampled_from([8, 16, 32, 64])),
        buffer_depth=draw(st.integers(2, 8)),
        num_vcs=num_vcs,
        arbiter_type=draw(arbiter_types),
        crossbar_type=draw(crossbar_types),
        cb_rows=draw(st.integers(8, 64)),
        cb_banks=draw(st.integers(1, 4)),
    )


@st.composite
def network_configs(draw):
    return NetworkConfig(
        topology=draw(st.sampled_from(["torus", "mesh"])),
        width=4, height=4,
        router=draw(router_configs()),
        link=LinkConfig(kind=draw(st.sampled_from(["on_chip",
                                                   "chip_to_chip"]))),
        tech=TechConfig(feature_size_um=draw(features), vdd=1.2,
                        frequency_hz=1e9),
        packet_length_flits=draw(st.integers(1, 4)),
        activity_mode=draw(st.sampled_from(["average", "data"])),
    )


class TestAnyConfigSimulates:
    @settings(max_examples=25, deadline=None)
    @given(network_configs(), st.data())
    def test_traffic_flows_and_energy_is_finite(self, cfg, data):
        accountant = EnergyAccountant(cfg.num_nodes)
        binding = PowerBinding(cfg, accountant)
        net = Network(cfg, binding)
        packets = []
        for _ in range(data.draw(st.integers(1, 6))):
            src = data.draw(st.integers(0, 15))
            dst = data.draw(st.integers(0, 15))
            if src != dst:
                packets.append(net.create_packet(src, dst, net.cycle))
        for _ in range(400):
            net.step()
            if all(p.eject_cycle is not None for p in packets):
                break
        net.audit()
        assert all(p.eject_cycle is not None for p in packets)
        # Price the event counters; a zero-cycle window adds no
        # traffic-insensitive energy, so only traffic is measured.
        binding.finalize(0, net.links_per_node())
        total = accountant.total_energy()
        assert total >= 0.0
        if packets:
            assert total > 0.0

    @settings(max_examples=25, deadline=None)
    @given(network_configs())
    def test_delay_model_accepts_any_config(self, cfg):
        model = RouterDelayModel(cfg)
        assert model.pipeline_depth in (2, 3)
        assert model.min_cycle_fo4() > 0
        assert 0 < model.max_frequency_hz() < 1e12

    @settings(max_examples=25, deadline=None)
    @given(network_configs())
    def test_binding_energies_are_positive(self, cfg):
        binding = PowerBinding(cfg, EnergyAccountant(cfg.num_nodes))
        assert binding.buffer_model.read_energy() > 0
        assert binding.buffer_model.write_energy() > 0
        assert binding.crossbar_model.traversal_energy() > 0
        assert binding.switch_arbiter_model.arbitration_energy(2) > 0
        if cfg.router.kind == "central":
            assert binding.central_model.read_energy() > 0
