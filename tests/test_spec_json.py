"""JSON round-trip tests for experiment specs.

The serve subsystem ships specs over HTTP as JSON, so every spec
object must survive ``to_json -> from_json`` bit-identically: equal
dataclasses *and* identical cache keys (the dedup and result-cache
currency).  Property-style: the full preset matrix crossed with
protocol variations.
"""

import dataclasses
import hashlib
import json

import pytest

import repro
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
from repro.exp import spec as spec_module
from repro.exp.spec import CACHE_SCHEMA

from tests.conftest import small_config

PROTOCOLS = [
    RunProtocol(),
    RunProtocol(warmup_cycles=0, sample_packets=1, collect_power=False),
    RunProtocol(audit_every=500),
    RunProtocol(telemetry_window=128, seed=7, on_stall="finish"),
    RunProtocol(max_cycles=50_000, watchdog_cycles=500, on_stall="finish"),
    RunProtocol(warmup_cycles=3, sample_packets=2, seed=2**31 - 1,
                audit_every=1),
    RunProtocol(collect_power=False, telemetry_window=1, max_cycles=1),
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

    def test_stale_fault_fields_rejected(self):
        """``faults`` and ``livelock_cycles`` left the protocol with
        the fault model; a protocol still carrying one names it."""
        for field, value in (("faults", {"seed": 3, "link_kills": 2}),
                             ("livelock_cycles", 50_000)):
            data = protocol_to_dict(RunProtocol())
            data[field] = value
            with pytest.raises(TypeError, match=field):
                protocol_from_dict(data)


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

    def test_small_config_cache_keys_identical(self):
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


def reference_key(point: RunPoint) -> str:
    """The cache-key formula written out in full: one ``json.dumps``
    over freshly built dicts, nothing memoised."""
    payload = {
        "config": dataclasses.asdict(point.config),
        "traffic": {"name": point.traffic.name,
                    "params": [list(kv) for kv in point.traffic.params]},
        "rate": point.rate,
        "protocol": dataclasses.asdict(point.protocol),
        "code": repro.__version__,
        "schema": CACHE_SCHEMA,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def vdd_point(vdd) -> RunPoint:
    config = preset("VC16")
    return RunPoint(config=config.with_(
                        tech=dataclasses.replace(config.tech, vdd=vdd)),
                    traffic=TrafficSpec.of("uniform"), rate=0.05)


class TestCacheKeyFormula:
    """``RunPoint.cache_key`` memoises the config and protocol texts;
    the keys must stay byte-identical to the plain formula."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("protocol",
                             [RunProtocol(), PROTOCOLS[4],
                              RunProtocol(telemetry_window=64)],
                             ids=["default", "stall", "telemetry"])
    def test_matches_reference_formula(self, name, protocol):
        for traffic in TRAFFICS:
            for _ in range(2):  # first call fills the memo, second reads it
                point = RunPoint(config=preset(name), traffic=traffic,
                                 rate=0.0625, protocol=protocol)
                assert point.cache_key() == reference_key(point)

    def test_pinned_keys(self, monkeypatch):
        """Literal keys under schema 6; the code version is fixed so a
        release bump does not move them."""
        monkeypatch.setattr(repro, "__version__", "pinned")
        assert CACHE_SCHEMA == 6
        pinned = {
            "WH64": "cf3e8495f44770b7e90a6585efc8c003"
                    "0daa580335131a1ac0ecdffeba340004",
            "VC16": "678b11d1f7cda76cdd655b1d357be124"
                    "6fc3f2e48ee72ba7ed3cb5900b6f5ad5",
            "CB": "7deb3507ddd6d0b7580a1b90cd79c1a0"
                  "88ce36658a4a202caac12f0c55058c20",
        }
        for name, key in pinned.items():
            point = RunPoint(config=preset(name),
                             traffic=TrafficSpec.of("uniform"), rate=0.05)
            assert point.cache_key() == key
            assert reference_key(point) == key

    def test_independent_of_spelling_order(self, monkeypatch):
        """``vdd=1`` and ``vdd=1.0`` are equal configs with different
        keys; which one the process saw first must not matter."""
        monkeypatch.setattr(spec_module, "_canonical_memo", {})
        assert vdd_point(1) == vdd_point(1.0)

        def keys(order):
            spec_module._canonical_memo.clear()
            return {repr(vdd): vdd_point(vdd).cache_key() for vdd in order}

        forward, backward = keys([1, 1.0]), keys([1.0, 1])
        assert forward == backward
        assert forward["1"] != forward["1.0"]
        assert forward["1"] == reference_key(vdd_point(1))
        assert forward["1.0"] == reference_key(vdd_point(1.0))

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(spec_module, "_canonical_memo", {})
        monkeypatch.setattr(spec_module, "CANONICAL_MEMO_SIZE", 4)
        for seed in range(10):
            point = RunPoint(config=preset("VC16"),
                             traffic=TrafficSpec.of("uniform"), rate=0.05,
                             protocol=RunProtocol(seed=seed))
            assert point.cache_key() == reference_key(point)
            assert len(spec_module._canonical_memo) <= 4
