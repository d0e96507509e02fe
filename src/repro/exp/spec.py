"""Declarative experiment descriptions.

An experiment is a grid of independent simulation points — (config ×
traffic × rate × seed) — each fully described by picklable data so it
can be dispatched to a worker process or hashed into a cache key:

* :class:`TrafficSpec` — a traffic pattern by registry name plus its
  declared parameters (workers rebuild the actual pattern object);
* :class:`RunPoint` — one simulation: config + traffic + rate +
  :class:`RunProtocol`;
* :class:`ExperimentSpec` — the full cartesian grid, expanded with
  :meth:`ExperimentSpec.points`;
* :func:`decode_job` — a job payload's run points or estimate, the one
  decoder behind both the CLI and the job service.

Every spec also round-trips through plain JSON — ``to_dict``/``to_json``
and the matching ``from_dict``/``from_json`` constructors rebuild an
equal object (same dataclass equality, same cache keys), so specs can
cross process and *machine* boundaries as text: the ``repro.serve`` job
service accepts exactly these dictionaries as its wire format (job
configs may also be presets: ``"VC16"`` or ``{"preset", "overrides"}``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.core.config import (
    LinkConfig,
    NetworkConfig,
    RouterConfig,
    RunProtocol,
    TechConfig,
)
from repro.core.presets import PRESETS, preset
from repro.sim.topology import Topology
from repro.sim.traffic import (
    TrafficPattern,
    make_traffic,
    validate_traffic_params,
)

# --- JSON round-trips --------------------------------------------------------
#
# ``dataclasses.asdict`` handles the "to" direction; the ``from``
# direction rebuilds the nested frozen dataclasses (router/link/tech
# inside a config) so that
# ``from_dict(to_dict(x)) == x`` holds for every spec — including after
# a trip through ``json.dumps``/``loads`` (tuples become lists on the
# wire; the constructors re-tuple them).


def config_to_dict(config: NetworkConfig) -> Dict[str, Any]:
    """A :class:`NetworkConfig` as a JSON-safe nested dict."""
    return asdict(config)


def config_from_dict(data: Mapping[str, Any]) -> NetworkConfig:
    """Rebuild a :class:`NetworkConfig` from :func:`config_to_dict`
    output (or any mapping using the same field names; omitted fields
    take their defaults)."""
    fields = dict(data)
    router = fields.pop("router", {})
    link = fields.pop("link", {})
    tech = fields.pop("tech", {})
    return NetworkConfig(
        router=router if isinstance(router, RouterConfig)
        else RouterConfig(**router),
        link=link if isinstance(link, LinkConfig) else LinkConfig(**link),
        tech=tech if isinstance(tech, TechConfig) else TechConfig(**tech),
        **fields)


def protocol_to_dict(protocol: RunProtocol) -> Dict[str, Any]:
    """A :class:`RunProtocol` as a JSON-safe dict."""
    return asdict(protocol)


def protocol_from_dict(data: Mapping[str, Any]) -> RunProtocol:
    """Rebuild a :class:`RunProtocol` from :func:`protocol_to_dict`
    output; an unknown field raises :class:`TypeError` naming it."""
    return RunProtocol(**data)


#: Bump when cached payload semantics change: invalidates every entry.
#: 2: outcomes carry the windowed telemetry record.
#: 3: outcomes carry status, attempts and fault counts.
#: 4: entries no longer hold the run point; a hit carries the caller's.
#: 5: ``RunProtocol`` lost a field, which moved every key; telemetry
#:    records carry channel and occupancy columns.
#: 6: ``RunProtocol`` lost its two fault-injection fields, which moved
#:    every key; outcomes lost their fault counts.
CACHE_SCHEMA = 6

#: Bound on the memo behind :func:`_canonical_json` (cleared when full).
CANONICAL_MEMO_SIZE = 1024
_canonical_memo: Dict[str, str] = {}


def _canonical_json(obj) -> str:
    """``json.dumps(asdict(obj), sort_keys=True, default=repr)`` for a
    config or protocol, memoised on ``repr(obj)``.

    The memo is keyed on the repr rather than the object because
    equality is too coarse: ``vdd=1`` and ``vdd=1.0`` (or ``True`` and
    ``1``) compare and hash equal but dump to different text, so a memo
    keyed on ``==`` would make a key depend on which spelling the
    process saw first.  Concurrent callers need no lock: a race can only
    recompute or drop an entry, never store a wrong one."""
    text = repr(obj)
    blob = _canonical_memo.get(text)
    if blob is None:
        if len(_canonical_memo) >= CANONICAL_MEMO_SIZE:
            _canonical_memo.clear()
        blob = json.dumps(asdict(obj), sort_keys=True, default=repr)
        _canonical_memo[text] = blob
    return blob


@dataclass(frozen=True)
class TrafficSpec:
    """A picklable, hashable description of one traffic pattern.

    ``params`` is a sorted tuple of ``(name, value)`` pairs; use
    :meth:`of` rather than the raw constructor.  Names and parameters
    are validated eagerly against the traffic registry.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        validate_traffic_params(self.name, dict(self.params))

    @classmethod
    def of(cls, name: str, **params) -> "TrafficSpec":
        """Build a spec from keyword parameters."""
        return cls(name, tuple(sorted(params.items())))

    def build(self, topo: Topology, rate: float, seed: int) -> TrafficPattern:
        """Instantiate the pattern for one topology/rate/seed."""
        return make_traffic(self.name, topo, rate, seed=seed,
                            **dict(self.params))

    def describe(self) -> str:
        """Short human-readable label, e.g. ``broadcast(source=9)``."""
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form: ``{"name": ..., "params": {...}}``."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, Any]]) -> "TrafficSpec":
        """Rebuild from :meth:`to_dict` output; a bare traffic name is
        accepted as shorthand for a parameterless spec."""
        if isinstance(data, str):
            return cls.of(data)
        return cls.of(data["name"], **dict(data.get("params") or {}))


@dataclass(frozen=True)
class RunPoint:
    """One simulation of the experiment grid, fully described by data."""

    config: NetworkConfig
    traffic: TrafficSpec
    rate: float
    protocol: RunProtocol = field(default_factory=RunProtocol)
    #: Cosmetic grouping label (e.g. the preset name); not part of the
    #: cache key.
    label: str = ""

    def cache_key(self) -> str:
        """Stable content hash of everything that determines the result:
        configuration, traffic spec, rate, protocol and code version.
        The blob is byte-for-byte one ``json.dumps(..., sort_keys=True,
        default=repr)`` of those fields, spliced from memoised parts."""
        import repro

        tail = json.dumps(
            {"rate": self.rate, "schema": CACHE_SCHEMA,
             "traffic": {"name": self.traffic.name,
                         "params": [list(kv) for kv in self.traffic.params]}},
            sort_keys=True, default=repr)
        # ``tail`` opens with the brace the spliced-in keys replace.
        blob = (f'{{"code": {json.dumps(repro.__version__)}, '
                f'"config": {_canonical_json(self.config)}, '
                f'"protocol": {_canonical_json(self.protocol)}, {tail[1:]}')
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> str:
        tag = self.label or self.config.router.kind
        return (f"{tag} {self.traffic.describe()} rate={self.rate:g} "
                f"seed={self.protocol.seed}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; feeds :meth:`from_dict` and the job service."""
        return {"config": config_to_dict(self.config),
                "traffic": self.traffic.to_dict(),
                "rate": self.rate,
                "protocol": protocol_to_dict(self.protocol),
                "label": self.label}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunPoint":
        return cls(config=config_from_dict(data["config"]),
                   traffic=TrafficSpec.from_dict(data["traffic"]),
                   rate=float(data["rate"]),
                   protocol=protocol_from_dict(data.get("protocol") or {}),
                   label=data.get("label", ""))

    @classmethod
    def from_json(cls, text: str) -> "RunPoint":
        return cls.from_dict(json.loads(text))


ConfigsLike = Union[NetworkConfig,
                    Mapping[str, NetworkConfig],
                    Sequence[Tuple[str, NetworkConfig]]]
TrafficsLike = Union[str, TrafficSpec,
                     Sequence[Union[str, TrafficSpec]]]


def _normalize_configs(configs: ConfigsLike) -> Tuple[Tuple[str, NetworkConfig], ...]:
    if isinstance(configs, NetworkConfig):
        return ((configs.router.kind, configs),)
    if isinstance(configs, Mapping):
        return tuple(configs.items())
    return tuple(configs)


def _normalize_traffics(traffics: TrafficsLike) -> Tuple[TrafficSpec, ...]:
    if isinstance(traffics, (str, TrafficSpec)):
        traffics = [traffics]
    return tuple(t if isinstance(t, TrafficSpec) else TrafficSpec.of(t)
                 for t in traffics)


@dataclass(frozen=True)
class ExperimentSpec:
    """A cartesian grid of run points: configs × traffics × seeds × rates."""

    configs: Tuple[Tuple[str, NetworkConfig], ...]
    traffics: Tuple[TrafficSpec, ...]
    rates: Tuple[float, ...]
    seeds: Tuple[int, ...] = (1,)
    protocol: RunProtocol = field(default_factory=RunProtocol)

    def __post_init__(self) -> None:
        for name, values in (("configs", self.configs),
                             ("traffics", self.traffics),
                             ("rates", self.rates),
                             ("seeds", self.seeds)):
            if not values:
                raise ValueError(f"experiment needs at least one of {name}")

    @classmethod
    def of(cls, configs: ConfigsLike, traffics: TrafficsLike,
           rates: Iterable[float], seeds: Iterable[int] = (1,),
           protocol: RunProtocol = RunProtocol()) -> "ExperimentSpec":
        """Build a spec from friendlier argument shapes: a single config,
        a ``{label: config}`` mapping, traffic names or specs, any
        iterables of rates and seeds."""
        return cls(configs=_normalize_configs(configs),
                   traffics=_normalize_traffics(traffics),
                   rates=tuple(rates), seeds=tuple(seeds),
                   protocol=protocol)

    @property
    def num_points(self) -> int:
        return (len(self.configs) * len(self.traffics)
                * len(self.seeds) * len(self.rates))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; feeds :meth:`from_dict` and the job service."""
        return {"configs": [[label, config_to_dict(config)]
                            for label, config in self.configs],
                "traffics": [t.to_dict() for t in self.traffics],
                "rates": list(self.rates),
                "seeds": list(self.seeds),
                "protocol": protocol_to_dict(self.protocol)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        return cls(
            configs=tuple((label, config_from_dict(config))
                          for label, config in data["configs"]),
            traffics=tuple(TrafficSpec.from_dict(t)
                           for t in data["traffics"]),
            rates=tuple(float(r) for r in data["rates"]),
            seeds=tuple(int(s) for s in data.get("seeds") or (1,)),
            protocol=protocol_from_dict(data.get("protocol") or {}))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def points(self) -> List[RunPoint]:
        """Expand the grid; rates vary innermost so each (config,
        traffic, seed) group forms one latency/power curve."""
        out = []
        for label, config in self.configs:
            for traffic in self.traffics:
                for seed in self.seeds:
                    protocol = replace(self.protocol, seed=seed)
                    for rate in self.rates:
                        out.append(RunPoint(config=config, traffic=traffic,
                                            rate=rate, protocol=protocol,
                                            label=label))
        return out


# --- Job specs -----------------------------------------------------------------
#
# A job is ``{"kind", "spec", "options"}``.  The CLI decodes the dict it
# builds from flags here, and the job service decodes the same dict when
# ``repro submit`` posts it: one decoder, so the same points and keys.

JOB_KINDS = ("run", "experiment", "estimate")


class JobError(ValueError):
    """A malformed job payload (maps to HTTP 400)."""


def _resolve_config(data: Any, context: str) -> NetworkConfig:
    """A config from a preset name, a ``{"preset": ..., "overrides":
    {...}}`` dict, or a full :func:`config_to_dict` dict."""
    if isinstance(data, str):
        if data not in PRESETS:
            raise JobError(f"{context}: unknown preset {data!r}; "
                           f"options: {', '.join(sorted(PRESETS))}")
        return preset(data)
    if not isinstance(data, Mapping):
        raise JobError(f"{context}: config must be a preset name or an "
                       f"object, got {type(data).__name__}")
    if "preset" in data:
        config = _resolve_config(data["preset"], context)
        overrides = dict(data.get("overrides") or {})
        unknown = set(data) - {"preset", "overrides"}
        if unknown:
            raise JobError(f"{context}: unknown config fields "
                           f"{sorted(unknown)}")
        try:
            router = overrides.pop("router", None)
            if router:
                config = config.with_router(**router)
            if overrides:
                config = config.with_(**overrides)
        except (TypeError, ValueError) as exc:
            raise JobError(f"{context}: bad config overrides: {exc}") \
                from None
        return config
    try:
        return config_from_dict(data)
    except (TypeError, ValueError, KeyError) as exc:
        raise JobError(f"{context}: bad config: {exc}") from None


def _resolve_protocol(data: Any, context: str) -> RunProtocol:
    try:
        return protocol_from_dict(data or {})
    except (TypeError, ValueError, KeyError) as exc:
        raise JobError(f"{context}: bad protocol: {exc}") from None


def _resolve_traffic(data: Any, context: str) -> TrafficSpec:
    try:
        return TrafficSpec.from_dict(data)
    except (TypeError, ValueError, KeyError) as exc:
        raise JobError(f"{context}: bad traffic: {exc}") from None


def _resolve_rate(value: Any, context: str, allow_zero: bool = False
                  ) -> float:
    """One injection rate: finite and in (0, 1] for a simulation, whose
    sample could never drain at rate 0, or in [0, 1] for an estimate."""
    try:
        rate = float(value)
    except (TypeError, ValueError):
        raise JobError(f"{context}: rate must be a number, "
                       f"got {value!r}") from None
    if not (math.isfinite(rate) and 0 <= rate <= 1
            and (allow_zero or rate > 0)):
        bounds = "[0, 1]" if allow_zero else "(0, 1]"
        raise JobError(f"{context}: rate must be in {bounds}, got {rate!r}")
    return rate


def _parse_run_spec(spec: Mapping[str, Any]) -> List[RunPoint]:
    for name in ("config", "rate"):
        if name not in spec:
            raise JobError(f"run spec is missing {name!r}")
    config = _resolve_config(spec["config"], "run spec")
    traffic = _resolve_traffic(spec.get("traffic", "uniform"), "run spec")
    protocol = _resolve_protocol(spec.get("protocol"), "run spec")
    rate = _resolve_rate(spec["rate"], "run spec")
    return [RunPoint(config=config, traffic=traffic, rate=rate,
                     protocol=protocol, label=str(spec.get("label", "")))]


def _parse_experiment_spec(spec: Mapping[str, Any]) -> List[RunPoint]:
    fields = dict(spec)
    if "presets" in fields:
        if "configs" in fields:
            raise JobError("experiment spec: give presets or configs, "
                           "not both")
        fields["configs"] = [[name, name] for name in fields.pop("presets")]
    if "configs" not in fields:
        raise JobError("experiment spec is missing configs (or presets)")
    try:
        configs = tuple(
            (str(label), _resolve_config(config, f"config {label!r}"))
            for label, config in fields["configs"])
    except JobError:
        raise
    except (TypeError, ValueError) as exc:
        raise JobError(f"experiment spec: configs must be "
                       f"[label, config] pairs: {exc}") from None
    for name in ("traffics", "rates"):
        if not fields.get(name):
            raise JobError(f"experiment spec is missing {name!r}")
    try:
        experiment = ExperimentSpec(
            configs=configs,
            traffics=tuple(_resolve_traffic(t, "experiment spec")
                           for t in fields["traffics"]),
            rates=tuple(_resolve_rate(r, "experiment spec")
                        for r in fields["rates"]),
            seeds=tuple(int(s) for s in fields.get("seeds") or (1,)),
            protocol=_resolve_protocol(fields.get("protocol"),
                                       "experiment spec"))
    except JobError:
        raise
    except (TypeError, ValueError) as exc:
        raise JobError(f"experiment spec: {exc}") from None
    return experiment.points()


def _parse_estimate_spec(spec: Mapping[str, Any]) -> Dict[str, Any]:
    for name in ("config", "rate"):
        if name not in spec:
            raise JobError(f"estimate spec is missing {name!r}")
    traffic = _resolve_traffic(spec.get("traffic", "uniform"),
                               "estimate spec")
    rate = _resolve_rate(spec["rate"], "estimate spec", allow_zero=True)
    return {
        "config": _resolve_config(spec["config"], "estimate spec"),
        "traffic": traffic.name,
        "params": dict(traffic.params),
        "rate": rate,
    }


def decode_job(payload: Mapping[str, Any]
               ) -> Tuple[List[RunPoint], Union[Dict[str, Any], None]]:
    """The work one job payload describes: its run points (``run`` and
    ``experiment`` kinds) or its estimate arguments (``estimate``:
    ``config``, ``traffic``, ``params``, ``rate``).  Only ``kind`` and
    ``spec`` are read; raises :class:`JobError` naming the offending
    field on malformed input."""
    kind = payload.get("kind")
    spec = payload.get("spec")
    if kind not in JOB_KINDS:
        raise JobError(f"unknown job kind {kind!r}; "
                       f"options: {', '.join(JOB_KINDS)}")
    if not isinstance(spec, Mapping):
        raise JobError("job payload needs a 'spec' object")
    if kind == "run":
        return _parse_run_spec(spec), None
    if kind == "experiment":
        return _parse_experiment_spec(spec), None
    return [], _parse_estimate_spec(spec)
