"""JSON round-trip tests for experiment specs.

The serve subsystem ships specs over HTTP as JSON, so every spec
object must survive ``to_json -> from_json`` bit-identically: equal
dataclasses *and* identical cache keys (the dedup and result-cache
currency).  Property-style: the full preset matrix crossed with
protocol and fault-grammar variations.
"""

import json

import pytest

from repro.core.config import RunProtocol
from repro.core.presets import PRESETS, preset
from repro.exp import (
    ExperimentSpec,
    RunPoint,
    TrafficSpec,
    config_from_dict,
    config_to_dict,
    protocol_from_dict,
    protocol_to_dict,
)
from repro.faults import FaultEvent, FaultSpec, parse_fault_specs

from tests.conftest import small_config

PROTOCOLS = [
    RunProtocol(),
    RunProtocol(warmup_cycles=0, sample_packets=1, collect_power=False),
    RunProtocol(monitor=True, audit_every=500),
    RunProtocol(telemetry_window=128, seed=7, livelock_cycles=10_000,
                on_stall="finish"),
    RunProtocol(faults=FaultSpec(seed=3, link_kills=2, link_flips=1,
                                 router_freezes=1, flip_duration=250),
                on_stall="finish"),
    RunProtocol(faults=FaultSpec(
        policy="drop",
        events=(FaultEvent("link_kill", 100, 5, 2),
                FaultEvent("router_freeze", 50, 3),
                FaultEvent("vc_stuck", 80, 2, 1, 0)))),
    RunProtocol(faults=parse_fault_specs(
        ["link_flip:node=5,port=east,at=1000,for=500",
         "random:kills=1,stuck=1"], seed=9, policy="drop")),
]

TRAFFICS = [
    TrafficSpec.of("uniform"),
    TrafficSpec.of("broadcast", source=9),
    TrafficSpec.of("hotspot", hotspot=5),
    TrafficSpec.of("transpose"),
]


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_configs(self, name):
        config = preset(name)
        rebuilt = config_from_dict(
            json.loads(json.dumps(config_to_dict(config))))
        assert rebuilt == config

    @pytest.mark.parametrize("kind", ["wormhole", "vc", "central"])
    def test_small_configs(self, kind):
        config = small_config(kind)
        rebuilt = config_from_dict(
            json.loads(json.dumps(config_to_dict(config))))
        assert rebuilt == config

    def test_partial_dict_takes_defaults(self):
        config = config_from_dict({"topology": "mesh", "width": 8,
                                   "height": 8})
        assert config.topology == "mesh"
        assert config.router.kind == "wormhole"

    def test_bad_field_rejected(self):
        with pytest.raises(TypeError):
            config_from_dict({"no_such_field": 1})


class TestProtocolRoundTrip:
    @pytest.mark.parametrize("index", range(len(PROTOCOLS)))
    def test_protocols(self, index):
        protocol = PROTOCOLS[index]
        rebuilt = protocol_from_dict(
            json.loads(json.dumps(protocol_to_dict(protocol))))
        assert rebuilt == protocol

    def test_fault_events_survive(self):
        protocol = PROTOCOLS[5]
        rebuilt = protocol_from_dict(
            json.loads(json.dumps(protocol_to_dict(protocol))))
        assert rebuilt.faults.events == protocol.faults.events


class TestTrafficRoundTrip:
    @pytest.mark.parametrize("index", range(len(TRAFFICS)))
    def test_traffics(self, index):
        spec = TRAFFICS[index]
        rebuilt = TrafficSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_bare_name_shorthand(self):
        assert TrafficSpec.from_dict("uniform") == TrafficSpec.of("uniform")

    def test_params_still_validated(self):
        with pytest.raises(ValueError, match="requires parameter"):
            TrafficSpec.from_dict({"name": "broadcast", "params": {}})


class TestRunPointRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("protocol", PROTOCOLS[:4])
    def test_preset_matrix_cache_keys_identical(self, name, protocol):
        point = RunPoint(config=preset(name),
                         traffic=TrafficSpec.of("broadcast", source=3),
                         rate=0.0625, protocol=protocol, label=name)
        rebuilt = RunPoint.from_json(point.to_json())
        assert rebuilt == point
        assert rebuilt.cache_key() == point.cache_key()

    def test_fault_protocol_cache_keys_identical(self):
        for protocol in PROTOCOLS[4:]:
            point = RunPoint(config=small_config("vc"),
                             traffic=TrafficSpec.of("uniform"),
                             rate=0.03, protocol=protocol)
            rebuilt = RunPoint.from_json(point.to_json())
            assert rebuilt == point
            assert rebuilt.cache_key() == point.cache_key()

    def test_stale_kernel_field_rejected(self):
        """``kernel`` left the protocol with the dense kernel; a point
        still carrying it fails loudly instead of silently hashing to a
        different cache key."""
        data = json.loads(RunPoint(config=small_config("vc"),
                                   traffic=TrafficSpec.of("uniform"),
                                   rate=0.03).to_json())
        data["protocol"]["kernel"] = "sparse"
        with pytest.raises((TypeError, ValueError), match="kernel"):
            RunPoint.from_json(json.dumps(data))


class TestExperimentSpecRoundTrip:
    def test_full_grid(self):
        spec = ExperimentSpec.of(
            configs={name: preset(name) for name in sorted(PRESETS)},
            traffics=TRAFFICS,
            rates=[0.02, 0.05, 0.1],
            seeds=[1, 2, 3],
            protocol=PROTOCOLS[3])
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert rebuilt == spec
        ours, theirs = spec.points(), rebuilt.points()
        assert ours == theirs
        assert [p.cache_key() for p in ours] == \
            [p.cache_key() for p in theirs]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_protocol_variant(self, protocol):
        # stuck_vcs faults only fit VC routers; keep the grid compatible
        spec = ExperimentSpec.of(small_config("vc"), "uniform",
                                 rates=[0.02], protocol=protocol)
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert rebuilt == spec

    def test_json_is_pure_data(self):
        spec = ExperimentSpec.of(preset("VC16"), "uniform", rates=[0.05])
        payload = json.loads(spec.to_json())
        assert isinstance(payload, dict)
        # no repr()-smuggled objects anywhere in the tree
        def assert_plain(node):
            if isinstance(node, dict):
                for value in node.values():
                    assert_plain(value)
            elif isinstance(node, list):
                for value in node:
                    assert_plain(value)
            else:
                assert node is None or isinstance(node, (str, int, float,
                                                         bool))
        assert_plain(payload)
