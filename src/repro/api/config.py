"""Declarative configuration tree for the unified discovery API.

A :class:`DiscoveryConfig` names every component of a discovery deployment by
its registry name plus parameters::

    {
      "searcher": {"name": "d3l", "signal_weights": {"name": 2.0}},
      "column_encoder": {"name": "cell-level", "base": "fasttext"},
      "tuple_encoder": {"name": "roberta"},
      "diversifier": {"name": "dust"},
      "pipeline": {"num_search_tables": 10, "k": 30, "min_query_rows": 3},
      "dust": {"candidate_multiplier": 2, "prune_limit": 2500, ...},
      "serving": {"store_dir": ".cache/index-store"},
      "sharding": {"num_shards": 8, "strategy": "hash"}
    }

The tree round-trips through ``from_dict``/``to_dict`` and JSON, is validated
eagerly (unknown sections, unknown component or parameter names and invalid
section values all raise
:class:`~repro.utils.errors.ConfigurationError` at construction time;
component parameter *values* are checked by the constructors at build time),
and has a stable content :meth:`fingerprint`.  Because the
searcher section fully determines the constructed searcher — whose
``config_fingerprint()`` keys the persistent
:class:`~repro.serving.store.IndexStore` — equal configs address the same
persisted index entries: a config *is* an index-store key.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from repro.api.registry import (
    COLUMN_ENCODERS,
    DIVERSIFIERS,
    SEARCHERS,
    STORE_BACKENDS,
    TUPLE_ENCODERS,
    Registry,
)
from repro.core.config import DustConfig, PipelineConfig
from repro.utils.errors import ConfigurationError

#: Section name -> registry used to validate the component's ``name``.
_COMPONENT_SECTIONS: dict[str, Registry] = {
    "searcher": SEARCHERS,
    "column_encoder": COLUMN_ENCODERS,
    "tuple_encoder": TUPLE_ENCODERS,
    "diversifier": DIVERSIFIERS,
}

_PIPELINE_FIELDS = ("num_search_tables", "k", "min_query_rows")
_DUST_FIELDS = tuple(f.name for f in fields(DustConfig))


class ConfigKey(NamedTuple):
    """One key of an operational config section.

    Values are never coerced: ``kind`` is checked strictly (an ``int`` key
    rejects ``bool`` and ``float``; a ``float`` key accepts ``int`` but
    rejects ``bool`` and NaN; a ``str`` key rejects the empty string), then
    ``choices`` and the inclusive ``ge``/``le`` or exclusive ``gt`` bounds.
    """

    default: Any
    kind: type
    nullable: bool = False
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    choices: tuple[str, ...] | None = None


#: Operational section -> key -> :class:`ConfigKey`.  The one source of every
#: section's keys, defaults and constraints: validation, serialization,
#: :meth:`DiscoveryConfig.section` and the CLI override flags all read it.
SECTION_KEYS: dict[str, dict[str, ConfigKey]] = {
    "serving": {
        "store_dir": ConfigKey(None, str, nullable=True),
        "cache_size": ConfigKey(1024, int, ge=0),
    },
    "sharding": {
        "num_shards": ConfigKey(1, int, ge=1),
        "strategy": ConfigKey("hash", str, choices=("hash", "size")),
    },
    "cascade": {
        "mode": ConfigKey("approx", str, choices=("exact", "approx")),
        "prefilter": ConfigKey("auto", str, choices=("auto", "lsh", "projection")),
        "candidate_budget": ConfigKey(32, int, ge=1),
        "escalation_margin": ConfigKey(0.0, float, ge=0),
        "projection_dim": ConfigKey(16, int, ge=1),
        "num_hashes": ConfigKey(64, int, ge=1),
        "num_bands": ConfigKey(16, int, ge=1),
        "seed": ConfigKey(7, int, ge=0),
    },
    "server": {
        "host": ConfigKey("127.0.0.1", str),
        "port": ConfigKey(8765, int, ge=0, le=65535),
        "max_inflight": ConfigKey(4, int, ge=1),
        "queue_timeout_seconds": ConfigKey(1.0, float, ge=0),
        "retry_after_seconds": ConfigKey(1.0, float, ge=0),
        "event_log": ConfigKey(None, str, nullable=True),
        "maintenance": ConfigKey(True, bool),
        "maintenance_interval_seconds": ConfigKey(1.0, float, ge=0),
        "maintenance_idle_seconds": ConfigKey(0.5, float, ge=0),
        "prewarm_queries": ConfigKey(8, int, ge=0),
    },
    "ingest": {
        "max_batch_events": ConfigKey(256, int, ge=1),
        "max_batch_bytes": ConfigKey(1_048_576, int, ge=1),
        "max_latency_seconds": ConfigKey(0.5, float, gt=0),
        "checkpoint": ConfigKey(True, bool),
        "rebalance_skew_threshold": ConfigKey(2.0, float, ge=1.0),
        "exclusive_timeout_seconds": ConfigKey(5.0, float, ge=0),
    },
    "store": {
        # Choices come from the STORE_BACKENDS registry (see _validated).
        "backend": ConfigKey("directory", str),
        "path": ConfigKey(None, str, nullable=True),
        "pool_size": ConfigKey(4, int, ge=1),
        "mmap": ConfigKey(True, bool),
        "lazy_shards": ConfigKey(True, bool),
    },
}

#: Sections left out of :meth:`DiscoveryConfig.fingerprint`: they change how
#: a deployment listens, batches writes or stores entries, never what its
#: indexes contain.
FINGERPRINT_NEUTRAL = frozenset({"server", "ingest", "store"})

_KIND_NAMES = {int: "an integer", float: "a number", str: "a non-empty string", bool: "a boolean"}


def _describe(spec: ConfigKey) -> str:
    """What a valid value of ``spec`` is, for error messages."""
    if spec.choices is not None:
        text = "one of " + "/".join(spec.choices)
    else:
        text = _KIND_NAMES[spec.kind]
        if spec.le is not None:
            text += f" in [{spec.ge}, {spec.le}]"
        elif spec.ge is not None:
            text += f" >= {spec.ge}"
        elif spec.gt is not None:
            text += f" > {spec.gt}"
    return text + (" or null" if spec.nullable else "")


def _valid(spec: ConfigKey, value: Any) -> bool:
    if value is None:
        return spec.nullable
    kinds = (int, float) if spec.kind is float else spec.kind
    if not isinstance(value, kinds) or (isinstance(value, bool) and spec.kind is not bool):
        return False
    if (isinstance(value, float) and math.isnan(value)) or (spec.kind is str and not value):
        return False
    return (
        (spec.choices is None or value in spec.choices)
        and (spec.ge is None or value >= spec.ge)
        and (spec.gt is None or value > spec.gt)
        and (spec.le is None or value <= spec.le)
    )


def _checked_section(
    section: str, payload: Mapping[str, Any], allowed: tuple[str, ...]
) -> dict[str, Any]:
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"config section {section!r} must be a mapping, got {payload!r}"
        )
    unknown = set(payload) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown keys in config section {section!r}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    return dict(payload)


def _validated(section: str, payload: Any) -> dict[str, Any]:
    """``payload`` over the section defaults, every value checked; no coercion."""
    keys = SECTION_KEYS[section]
    values = {
        **{key: spec.default for key, spec in keys.items()},
        **_checked_section(section, payload, tuple(keys)),
    }
    for key, spec in keys.items():
        if not _valid(spec, values[key]):
            raise ConfigurationError(
                f"{section}.{key} must be {_describe(spec)}, got {values[key]!r}"
            )
    if section == "cascade" and values["num_hashes"] % values["num_bands"]:
        raise ConfigurationError(
            f"cascade.num_hashes ({values['num_hashes']}) must be a multiple of "
            f"cascade.num_bands ({values['num_bands']})"
        )
    if section == "store" and values["backend"] not in STORE_BACKENDS:
        raise ConfigurationError(
            f"store.backend must be one of {STORE_BACKENDS.names()}, "
            f"got {values['backend']!r}"
        )
    return values


@dataclass(frozen=True)
class ComponentSpec:
    """One named component: a registry name plus constructor parameters."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ConfigurationError(
                f"component name must be a non-empty string, got {self.name!r}"
            )
        object.__setattr__(self, "name", self.name.strip().lower())
        object.__setattr__(self, "params", dict(self.params))

    @classmethod
    def from_value(cls, value: "ComponentSpec | str | Mapping[str, Any]", *, section: str) -> "ComponentSpec":
        """Parse ``"starmie"`` or ``{"name": "starmie", <param>: ...}``."""
        if isinstance(value, ComponentSpec):
            return value
        if isinstance(value, str):
            return cls(value)
        if isinstance(value, Mapping):
            payload = dict(value)
            name = payload.pop("name", None)
            if name is None:
                raise ConfigurationError(
                    f"config section {section!r} must carry a 'name' key, got {value!r}"
                )
            # Accept both flat params and an explicit nested "params" dict.
            params = payload.pop("params", {})
            if not isinstance(params, Mapping):
                raise ConfigurationError(
                    f"config section {section!r}: 'params' must be a mapping, got {params!r}"
                )
            return cls(name, {**params, **payload})
        raise ConfigurationError(
            f"config section {section!r} must be a name or mapping, got {value!r}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, **self.params}


def _validate_component_params(section: str, registry: Registry, spec: ComponentSpec) -> None:
    """Reject parameter *names* the component's constructor does not accept.

    Parameter values are still validated by the constructor itself at build
    time; this catches the config-file typo case up front without having to
    instantiate (potentially expensive) components.
    """
    factory = registry.get(spec.name)  # unknown component name -> error
    target = factory.__init__ if inspect.isclass(factory) else factory
    try:
        parameters = inspect.signature(target).parameters
    except (TypeError, ValueError):  # pragma: no cover - C-level callables
        return
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return
    allowed = {name for name in parameters if name != "self"}
    unknown = set(spec.params) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown parameters for {section} {spec.name!r}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


@dataclass
class DiscoveryConfig:
    """The declarative, serializable configuration of a discovery deployment.

    All sections are optional and normalised at construction: ``pipeline``
    and ``dust`` and every present operational section (:data:`SECTION_KEYS`)
    are expanded to their fully-resolved values (so :meth:`to_dict` is
    canonical and :meth:`fingerprint` is a content address), and every
    component name is resolved against its registry up front.
    """

    searcher: ComponentSpec = field(default_factory=lambda: ComponentSpec("overlap"))
    column_encoder: ComponentSpec = field(
        default_factory=lambda: ComponentSpec("column-level", {"base": "roberta"})
    )
    tuple_encoder: ComponentSpec = field(default_factory=lambda: ComponentSpec("roberta"))
    diversifier: ComponentSpec = field(default_factory=lambda: ComponentSpec("dust"))
    pipeline: dict[str, Any] = field(default_factory=dict)
    dust: dict[str, Any] = field(default_factory=dict)
    serving: dict[str, Any] | None = None
    #: Optional lake-sharding section: ``{"num_shards": 8, "strategy":
    #: "hash"}``.  With ``num_shards > 1`` every backend the facade builds
    #: becomes a :class:`~repro.search.sharded.ShardedSearcher` — per-shard
    #: builds, fan-out/merge serving, per-shard store entries —
    #: transparently, with rankings bit-identical to a flat index.
    sharding: dict[str, Any] | None = None
    #: Optional tiered-cascade section: ``{"mode": "approx",
    #: "candidate_budget": 32, "escalation_margin": 0.0, ...}``.  When present
    #: the facade wraps the built backend in a
    #: :class:`~repro.search.cascade.CascadeSearcher` — approximate candidate
    #: prefilter, narrow exact scoring, ambiguity-triggered escalation.
    #: ``mode: "exact"`` keeps rankings bit-identical to the bare backend.
    cascade: dict[str, Any] | None = None
    #: Optional resident-server section: ``{"host": ..., "port": ...,
    #: "max_inflight": 4, "queue_timeout_seconds": 1.0, ...}`` consumed by
    #: ``python -m repro serve`` /
    #: :class:`~repro.serving.server.DiscoveryServer`.  Deliberately
    #: **fingerprint-neutral**: where a deployment listens and how it
    #: admission-controls traffic never changes what its indexes contain, so
    #: two configs differing only here share :meth:`fingerprint` — and hence
    #: persisted index entries and cached results.
    server: dict[str, Any] | None = None
    #: Optional streaming-ingestion section: ``{"max_batch_events": 256,
    #: "max_batch_bytes": 1048576, "max_latency_seconds": 0.5, ...}``
    #: consumed by :meth:`~repro.api.facade.Discovery.ingest` /
    #: :class:`~repro.ingest.controller.IngestController`.  Like ``server``,
    #: it is **fingerprint-neutral**: batching cadence changes *when* writes
    #: land, never what an index built from the same content contains.
    ingest: dict[str, Any] | None = None
    #: Optional index-store backend section: ``{"backend": "sqlite",
    #: "path": null, "pool_size": 4, "mmap": true, "lazy_shards": true}``
    #: selecting *how* ``serving.store_dir`` persists entries (the
    #: :data:`~repro.api.registry.STORE_BACKENDS` registry).  Like ``server``
    #: and ``ingest`` it is **fingerprint-neutral**: the physical storage of
    #: an index never changes its content, so the same entries stay
    #: addressable when a deployment migrates between backends.
    store: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        for section, registry in _COMPONENT_SECTIONS.items():
            spec = ComponentSpec.from_value(getattr(self, section), section=section)
            setattr(self, section, spec)
            _validate_component_params(section, registry, spec)

        pipeline = _checked_section("pipeline", self.pipeline, _PIPELINE_FIELDS)
        dust = _checked_section("dust", self.dust, _DUST_FIELDS)
        # Building the frozen config dataclasses validates every value (k > 0,
        # known metric/linkage, ...) and fills in the paper defaults.
        resolved = PipelineConfig(dust=DustConfig(**dust), **pipeline)
        self.pipeline = {name: getattr(resolved, name) for name in _PIPELINE_FIELDS}
        self.dust = {name: getattr(resolved.dust, name) for name in _DUST_FIELDS}

        for section in SECTION_KEYS:
            if getattr(self, section) is not None:
                setattr(self, section, _validated(section, getattr(self, section)))

    # ----------------------------------------------------------------- presets
    @classmethod
    def preset(cls, name: str) -> "DiscoveryConfig":
        """A shipped, evidence-backed named configuration.

        Presets (``"exact"``, ``"balanced"``, ``"low-latency"``) are the
        config payloads of :mod:`repro.scenarios.presets`, chosen from the
        measured Pareto fronts of the scenario matrix
        (``python -m repro scenarios`` → ``BENCH_scenarios.json``); each is
        a grid cell of that matrix, so its trade-offs are re-measured every
        run.  Presets round-trip: ``preset(n).to_dict()`` rebuilds an equal
        config with a stable :meth:`fingerprint`.
        """
        from repro.scenarios.presets import preset_payload

        return cls.from_dict(preset_payload(name))

    # -------------------------------------------------------------- resolution
    def pipeline_config(self) -> PipelineConfig:
        """The validated :class:`~repro.core.config.PipelineConfig` this names."""
        return PipelineConfig(dust=self.dust_config(), **self.pipeline)

    def dust_config(self) -> DustConfig:
        """The validated :class:`~repro.core.config.DustConfig` this names."""
        return DustConfig(**self.dust)

    # ----------------------------------------------------------- serialization
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DiscoveryConfig":
        """Build and validate a config from a plain (e.g. JSON-loaded) dict."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"discovery config must be a mapping, got {payload!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown discovery config sections: {sorted(unknown)}; "
                f"allowed: {sorted(known)}"
            )
        return cls(**payload)

    def to_dict(self) -> dict[str, Any]:
        """Canonical, fully-resolved, JSON-serializable form (round-trips)."""
        payload: dict[str, Any] = {
            section: getattr(self, section).to_dict()
            for section in _COMPONENT_SECTIONS
        }
        payload["pipeline"] = dict(self.pipeline)
        payload["dust"] = dict(self.dust)
        for section in SECTION_KEYS:
            if getattr(self, section) is not None:
                payload[section] = dict(getattr(self, section))
        return payload

    def section(self, name: str, **overrides: Any) -> dict[str, Any]:
        """Operational section ``name`` with its defaults filled in.

        Works whether or not the section is present, and never marks it
        present (a present ``serving`` section is what enables the
        ``QueryService`` layer).  ``overrides`` are layered on top and
        validated exactly like the same keys in a config file.
        """
        if name not in SECTION_KEYS:
            raise ConfigurationError(
                f"unknown config section {name!r}; allowed: {list(SECTION_KEYS)}"
            )
        return _validated(name, {**(getattr(self, name) or {}), **overrides})

    @classmethod
    def from_json(cls, text: str) -> "DiscoveryConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid discovery config JSON: {exc}") from exc
        return cls.from_dict(payload)

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_file(cls, path: str | Path) -> "DiscoveryConfig":
        """Load a config from a JSON file."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read discovery config file {path}: {exc}"
            ) from exc
        return cls.from_json(text)

    # ------------------------------------------------------------- fingerprint
    def fingerprint(self) -> str:
        """Stable hex digest of the canonical config tree.

        Two configs with the same fingerprint build component-for-component
        identical deployments — and therefore address the same entries of a
        persistent index store.  The :data:`FINGERPRINT_NEUTRAL` sections
        (``server``, ``ingest``, ``store``) are excluded: moving a server to
        another port, retuning write batching or migrating the store backend
        must not orphan persisted indexes or cached results.
        """
        content = {
            section: values
            for section, values in self.to_dict().items()
            if section not in FINGERPRINT_NEUTRAL
        }
        payload = json.dumps(content, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()
