"""Declarative pipeline specifications with a JSON round trip.

A :class:`PipelineSpec` names *what* to build — either one standalone
model, or an embedder x detector composition plus the pipeline-level
self-update knobs — without constructing anything.  Specs are frozen,
JSON-serialisable (``to_dict``/``from_dict``, ``to_json``/``from_json``)
and validate against the component registry with actionable errors, so
an arm of the paper's evaluation, a checkpoint on disk and a tenant in a
serving fleet all share one portable description.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.pipeline.registry import ComponentEntry, get_component

__all__ = ["SPEC_VERSION", "ComponentSpec", "DriftSpec", "PipelineSpec"]

SPEC_VERSION = 1


def _json_ready(value: Any, context: str) -> Any:
    """Deep-normalise ``value`` into plain JSON types (tuples -> lists).

    Normalising at construction time makes spec equality agree with a
    JSON round trip: ``from_dict(json.loads(json.dumps(s.to_dict())))``
    compares equal to ``s``.
    """
    if isinstance(value, Mapping):
        return {str(k): _json_ready(v, context) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v, context) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return value
    if hasattr(value, "item") and callable(value.item):  # numpy scalars
        return _json_ready(value.item(), context)
    raise TypeError(f"{context}: value of type {type(value).__name__} is not JSON-safe")


@dataclass(frozen=True)
class ComponentSpec:
    """One named component plus its (partial) parameters.

    Parameters omitted here fall back to the component's defaults at
    build time; parameter *names* are validated against the registry
    entry so nothing is silently dropped.
    """

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"component name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "params",
                           _json_ready(dict(self.params), f"component {self.name!r} params"))

    def to_dict(self) -> dict:
        return {"name": self.name, "params": self.params}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ComponentSpec":
        if not isinstance(data, Mapping):
            raise ValueError(f"component spec must be a mapping, got {type(data).__name__}")
        unknown = set(data) - {"name", "params"}
        if unknown:
            raise ValueError(f"component spec has unknown keys {sorted(unknown)}; "
                             "expected only 'name' and 'params'")
        if "name" not in data:
            raise ValueError("component spec is missing its 'name'")
        return cls(name=data["name"], params=dict(data.get("params") or {}))

    def resolve(self, kind: str) -> ComponentEntry:
        """Validate against the registry; returns the matching entry.

        Raises :class:`~repro.pipeline.registry.UnknownComponentError`
        for unknown names (listing the known ones) and ``ValueError``
        for parameters outside the entry's accepted set.
        """
        entry = get_component(kind, self.name)
        unknown = set(self.params) - set(entry.params)
        if unknown:
            raise ValueError(
                f"{kind} {self.name!r} does not accept parameter(s) "
                f"{', '.join(sorted(repr(p) for p in unknown))}; accepted parameters: "
                f"{', '.join(sorted(entry.params))}")
        return entry


@dataclass(frozen=True)
class DriftSpec:
    """Declarative temporal-dynamics workload attached to a pipeline spec.

    Each schedule entry names a registered world-mutation schedule from
    :data:`repro.rf.dynamics.SCHEDULES` (``ap-churn``, ``churn-shock``,
    ``tx-power-drift``, ``mac-randomization``, ``transient-hotspots``,
    ``device-gain-drift``) with its parameters.  A drift block describes
    the *evaluation world's* evolution, not the model — building the
    pipeline ignores it; the drift harness and ``python -m repro drift``
    consume it via :meth:`build_timeline`.
    """

    num_epochs: int = 8
    seed: int = 0
    schedules: tuple = ()

    def __post_init__(self):
        if isinstance(self.num_epochs, bool) or not isinstance(self.num_epochs, int):
            raise ValueError(f"num_epochs must be an integer, got {self.num_epochs!r}")
        if self.num_epochs < 1:
            raise ValueError(f"num_epochs must be >= 1, got {self.num_epochs}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        schedules = tuple(
            entry if isinstance(entry, ComponentSpec) else ComponentSpec.from_dict(entry)
            for entry in self.schedules)
        object.__setattr__(self, "schedules", schedules)

    def validate(self) -> "DriftSpec":
        """Check every schedule name and parameter set; returns self."""
        self.build_schedules()
        return self

    def build_schedules(self) -> list:
        from repro.rf.dynamics import build_schedule
        return [build_schedule(entry.name, entry.params) for entry in self.schedules]

    def build_timeline(self, scenario):
        """The :class:`~repro.rf.dynamics.DynamicsTimeline` this block describes."""
        from repro.rf.dynamics import DynamicsTimeline
        return DynamicsTimeline(scenario, self.build_schedules(),
                                num_epochs=self.num_epochs, seed=self.seed)

    def to_dict(self) -> dict:
        return {"num_epochs": self.num_epochs, "seed": self.seed,
                "schedules": [entry.to_dict() for entry in self.schedules]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "DriftSpec":
        if not isinstance(data, Mapping):
            raise ValueError(f"drift spec must be a mapping, got {type(data).__name__}")
        unknown = set(data) - {"num_epochs", "seed", "schedules"}
        if unknown:
            raise ValueError(f"drift spec has unknown keys {sorted(unknown)}")
        return cls(num_epochs=data.get("num_epochs", 8), seed=data.get("seed", 0),
                   schedules=tuple(data.get("schedules") or ()))


@dataclass(frozen=True)
class PipelineSpec:
    """Declarative description of one geofencing pipeline.

    Exactly one of two shapes:

    * ``model=ComponentSpec(...)`` — a standalone registered model
      (``gem``, ``signature-home``, ``inoa``);
    * ``embedder=... detector=...`` — an
      :class:`~repro.core.gem.EmbeddingGeofencer` composition, with
      ``self_update``/``batch_update_size`` steering Algorithm 2's
      online model update.

    Either shape may carry an optional ``drift`` block — a declarative
    temporal-dynamics workload (:class:`DriftSpec`) for the drift
    evaluation harness — and an optional ``maintenance`` block — a
    :class:`~repro.serve.policy.MaintenancePolicy` telling a fleet
    controller when to run coordinated refresh / re-provision / flush
    for tenants built from this spec.  Neither block affects what
    ``build_pipeline`` constructs.
    """

    embedder: ComponentSpec | None = None
    detector: ComponentSpec | None = None
    model: ComponentSpec | None = None
    self_update: bool = True
    batch_update_size: int = 1
    drift: DriftSpec | None = None
    maintenance: object | None = None

    def __post_init__(self):
        if self.drift is not None and not isinstance(self.drift, DriftSpec):
            object.__setattr__(self, "drift", DriftSpec.from_dict(self.drift))
        if self.maintenance is not None:
            # Imported lazily: repro.serve imports repro.pipeline at module
            # load, so the reverse import must happen at call time.
            from repro.serve.policy import MaintenancePolicy
            if not isinstance(self.maintenance, MaintenancePolicy):
                object.__setattr__(self, "maintenance",
                                   MaintenancePolicy.from_dict(self.maintenance))
        if self.model is not None:
            if self.embedder is not None or self.detector is not None:
                raise ValueError("a model spec cannot also name an embedder/detector; "
                                 "use either model=... or embedder=... detector=...")
            if self.self_update is not True or self.batch_update_size != 1:
                raise ValueError(
                    "self_update/batch_update_size do not apply to model specs "
                    "(the model bundles its own update behaviour); configure them "
                    "in the model's params instead, e.g. "
                    "ComponentSpec('gem', {'self_update': False})")
        elif self.embedder is None or self.detector is None:
            raise ValueError("a pipeline spec needs either model=... or BOTH "
                             "embedder=... and detector=...")
        if self.batch_update_size < 1:
            raise ValueError("batch_update_size must be >= 1")

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> "PipelineSpec":
        """Check every named component and parameter against the registry.

        Also rejects ``self_update=True`` over a detector without an
        online-update capability — the update would otherwise be
        silently skipped at serving time.
        """
        if self.drift is not None:
            self.drift.validate()
        wants_refresh = self.maintenance is not None and self.maintenance.wants_refresh()
        if self.model is not None:
            entry = self.model.resolve("model")
            if wants_refresh and not entry.supports_refresh:
                raise ValueError(
                    f"the maintenance policy can demand a coordinated refresh but "
                    f"model {self.model.name!r} is not refresh-capable; drop the "
                    "refresh clauses or pick a refresh-capable model (e.g. 'gem')")
            return self
        embedder_entry = self.embedder.resolve("embedder")
        detector_entry = self.detector.resolve("detector")
        if self.self_update and not detector_entry.supports_update:
            raise ValueError(
                f"self_update=True but detector {self.detector.name!r} has no online "
                "update; set self_update=False or choose an updatable detector "
                "(e.g. 'histogram')")
        if wants_refresh and not (embedder_entry.supports_refresh
                                  and detector_entry.supports_refresh):
            culprit = (("embedder", self.embedder.name)
                       if not embedder_entry.supports_refresh
                       else ("detector", self.detector.name))
            raise ValueError(
                f"the maintenance policy can demand a coordinated refresh but "
                f"{culprit[0]} {culprit[1]!r} is not refresh-capable; drop the "
                "refresh clauses or pick refresh-capable components "
                "(e.g. embedder 'bisage', detector 'histogram')")
        return self

    def supports_refresh(self) -> bool:
        """True when pipelines built from this spec can run a coordinated
        refresh (a graph embedder + detector with ``refit``, or a
        refresh-capable standalone model)."""
        if self.model is not None:
            return self.model.resolve("model").supports_refresh
        return (self.embedder.resolve("embedder").supports_refresh
                and self.detector.resolve("detector").supports_refresh)

    def require_state_dict(self) -> "PipelineSpec":
        """Reject specs naming any component registered as non-persistable.

        The serving layer calls this *before* fitting/saving, so a
        tenant never pays a full ``fit`` only to fail at checkpoint
        time.
        """
        self.validate()
        components = ((("model", self.model),) if self.model is not None
                      else (("embedder", self.embedder), ("detector", self.detector)))
        for kind, component in components:
            if not component.resolve(kind).supports_state_dict:
                raise ValueError(
                    f"{kind} {component.name!r} is registered with "
                    "supports_state_dict=False, so this pipeline cannot be "
                    "checkpointed or served from a registry")
        return self

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out: dict = {"spec_version": SPEC_VERSION}
        if self.model is not None:
            out["model"] = self.model.to_dict()
        else:
            out["embedder"] = self.embedder.to_dict()
            out["detector"] = self.detector.to_dict()
            out["self_update"] = self.self_update
            out["batch_update_size"] = self.batch_update_size
        if self.drift is not None:
            out["drift"] = self.drift.to_dict()
        if self.maintenance is not None:
            out["maintenance"] = self.maintenance.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineSpec":
        if not isinstance(data, Mapping):
            raise ValueError(f"pipeline spec must be a mapping, got {type(data).__name__}")
        data = dict(data)
        version = data.pop("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(f"pipeline spec version {version!r} is not supported "
                             f"(this build reads version {SPEC_VERSION})")
        unknown = set(data) - {"embedder", "detector", "model",
                               "self_update", "batch_update_size", "drift",
                               "maintenance"}
        if unknown:
            raise ValueError(f"pipeline spec has unknown keys {sorted(unknown)}")
        kwargs: dict = {}
        for key in ("embedder", "detector", "model"):
            if data.get(key) is not None:
                kwargs[key] = ComponentSpec.from_dict(data[key])
        if data.get("drift") is not None:
            kwargs["drift"] = DriftSpec.from_dict(data["drift"])
        if data.get("maintenance") is not None:
            from repro.serve.policy import MaintenancePolicy
            kwargs["maintenance"] = MaintenancePolicy.from_dict(data["maintenance"])
        if "self_update" in data:
            # No bool() coercion: a hand-edited "false" string would
            # silently flip self-update ON, drifting every decision.
            if not isinstance(data["self_update"], bool):
                raise ValueError(f"self_update must be a JSON boolean, "
                                 f"got {data['self_update']!r}")
            kwargs["self_update"] = data["self_update"]
        if "batch_update_size" in data:
            size = data["batch_update_size"]
            if isinstance(size, bool) or not isinstance(size, int):
                raise ValueError(f"batch_update_size must be a JSON integer, got {size!r}")
            kwargs["batch_update_size"] = size
        return cls(**kwargs)

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        """One-line human summary ("bisage + lof" / "model gem")."""
        if self.model is not None:
            return f"model {self.model.name}"
        update = f", self_update x{self.batch_update_size}" if self.self_update else ""
        return f"{self.embedder.name} + {self.detector.name}{update}"
