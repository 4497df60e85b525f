"""Declarative specs for every algorithm arm in the paper's evaluation.

Table I compares nine systems; Fig. 7 adds two ablations.  Each arm is
a :class:`~repro.pipeline.spec.PipelineSpec` resolved through the
component registry, so the benchmark scripts stay declarative and the
serving stack can persist and rebuild any arm.  ``ALGORITHM_SPECS``
holds the paper-default spec per arm; :func:`arm_spec` parameterises
them (seed/dim sweeps, shared GEM hyper-parameters) and
:func:`make_algorithm` remains the one-call compatibility shim that
builds the live pipeline.

All arms share the embedding dimension and seeds so differences come
from the algorithms, not the budgets.  Arms that *have* no seeded or
dimensioned component reject an explicit override (``strict=True``) or
warn (the shim), instead of silently dropping it.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

from repro.core.config import GEMConfig
from repro.embedding.graphsage import GraphSAGEConfig
from repro.pipeline import ComponentSpec, PipelineSpec, build_pipeline

__all__ = ["ALGORITHM_NAMES", "ALGORITHM_SPECS", "arm_accepts", "arm_spec",
           "make_algorithm"]

ALGORITHM_NAMES = (
    "GEM",
    "SignatureHome",
    "INOA",
    "GraphSAGE+OD",
    "Autoencoder+OD",
    "MDS+OD",
    "BiSAGE+FeatureBagging",
    "BiSAGE+iForest",
    "BiSAGE+LOF",
    "GEM(no-BiSAGE)",     # Fig. 7(a): imputed matrix straight into OD
    "GEM(plain-HBOS)",    # Fig. 7(b): no softmax enhancement, no update
)

_DEFAULT_SEED = 0
_DEFAULT_DIM = 32

# Arms with no component that consumes the shared sweep parameter; an
# explicit override of these is an inapplicable hyper-parameter, not a
# silent no-op (see `arm_spec`).
_SEEDLESS_ARMS = frozenset({"SignatureHome", "INOA", "MDS+OD", "GEM(no-BiSAGE)"})
_DIMLESS_ARMS = frozenset({"SignatureHome", "INOA", "GEM(no-BiSAGE)"})


def arm_accepts(name: str, parameter: str) -> bool:
    """Whether ``name`` has a component that consumes ``seed``/``dim``.

    Sweep drivers use this to skip inapplicable overrides instead of
    tripping :func:`arm_spec`'s strict rejection.
    """
    if name not in ALGORITHM_NAMES:
        raise ValueError(f"unknown algorithm {name!r}; known: {ALGORITHM_NAMES}")
    if parameter == "seed":
        return name not in _SEEDLESS_ARMS
    if parameter == "dim":
        return name not in _DIMLESS_ARMS
    raise ValueError(f"unknown shared parameter {parameter!r}; known: seed, dim")


def arm_spec(name: str, seed: int = _DEFAULT_SEED, dim: int = _DEFAULT_DIM,
             gem_config: GEMConfig | None = None, strict: bool = True) -> PipelineSpec:
    """The :class:`PipelineSpec` of one evaluation arm by its paper name.

    ``gem_config`` (when given) seeds the shared hyper-parameters; the
    per-arm spec overrides what the arm needs.  Passing a non-default
    ``seed``/``dim`` to an arm with no component that consumes it raises
    (``strict=True``) or warns (``strict=False``) — a sweep must never
    silently reuse one model under many labels.
    """
    ignored = []
    if name in _SEEDLESS_ARMS and seed != _DEFAULT_SEED:
        ignored.append(f"seed={seed}")
    if name in _DIMLESS_ARMS and dim != _DEFAULT_DIM:
        ignored.append(f"dim={dim}")
    if ignored:
        message = (f"arm {name!r} has no component that consumes "
                   f"{' or '.join(ignored)}; the parameter would be silently ignored")
        if strict:
            raise ValueError(message + " (pass the default, or strict=False to "
                             "build the arm anyway)")
        warnings.warn(message, UserWarning, stacklevel=3)

    base = gem_config or GEMConfig()
    bisage_cfg = replace(base.bisage, dim=dim, seed=seed)
    hist = ComponentSpec("histogram", base.histogram.to_dict())
    bisage = ComponentSpec("bisage", {**bisage_cfg.to_dict(),
                                      "weight_offset": base.weight_offset})

    if name == "GEM":
        return PipelineSpec(model=ComponentSpec(
            "gem", replace(base, bisage=bisage_cfg).to_dict()))
    if name == "SignatureHome":
        return PipelineSpec(model=ComponentSpec("signature-home"))
    if name == "INOA":
        return PipelineSpec(model=ComponentSpec("inoa"))
    if name == "GraphSAGE+OD":
        sage_cfg = GraphSAGEConfig(dim=dim, seed=seed,
                                   num_layers=bisage_cfg.num_layers,
                                   sample_size=bisage_cfg.sample_size,
                                   learning_rate=bisage_cfg.learning_rate,
                                   epochs=bisage_cfg.epochs,
                                   batch_pairs=bisage_cfg.batch_pairs,
                                   walk=bisage_cfg.walk)
        return PipelineSpec(
            embedder=ComponentSpec("graphsage", {**sage_cfg.to_dict(),
                                                 "weight_offset": base.weight_offset}),
            detector=hist,
            self_update=base.self_update,
            batch_update_size=base.batch_update_size)
    if name == "Autoencoder+OD":
        return PipelineSpec(
            embedder=ComponentSpec("autoencoder", {"dim": dim, "seed": seed}),
            detector=hist,
            self_update=base.self_update,
            batch_update_size=base.batch_update_size)
    if name == "MDS+OD":
        return PipelineSpec(
            embedder=ComponentSpec("mds", {"dim": dim}),
            detector=hist,
            self_update=base.self_update,
            batch_update_size=base.batch_update_size)
    if name == "BiSAGE+FeatureBagging":
        return PipelineSpec(embedder=bisage,
                            detector=ComponentSpec("feature-bagging", {"seed": seed}),
                            self_update=False)
    if name == "BiSAGE+iForest":
        return PipelineSpec(embedder=bisage,
                            detector=ComponentSpec("iforest", {"seed": seed}),
                            self_update=False)
    if name == "BiSAGE+LOF":
        return PipelineSpec(embedder=bisage, detector=ComponentSpec("lof"),
                            self_update=False)
    if name == "GEM(no-BiSAGE)":
        return PipelineSpec(embedder=ComponentSpec("imputed-matrix"),
                            detector=hist,
                            self_update=base.self_update,
                            batch_update_size=base.batch_update_size)
    if name == "GEM(plain-HBOS)":
        plain = replace(base.histogram, enhanced=False)
        return PipelineSpec(embedder=bisage,
                            detector=ComponentSpec("histogram", plain.to_dict()),
                            self_update=False)
    raise ValueError(f"unknown algorithm {name!r}; known: {ALGORITHM_NAMES}")


# Paper-default spec per arm — the declarative form of Table I / Fig. 7.
ALGORITHM_SPECS: dict[str, PipelineSpec] = {name: arm_spec(name)
                                            for name in ALGORITHM_NAMES}


def make_algorithm(name: str, seed: int = _DEFAULT_SEED, dim: int = _DEFAULT_DIM,
                   gem_config: GEMConfig | None = None):
    """Instantiate one evaluation arm by its paper name.

    Compatibility shim over ``build_pipeline(arm_spec(...))``; sweeps
    passing ``seed``/``dim`` to arms that cannot consume them get a
    :class:`UserWarning` instead of a hard error.
    """
    return build_pipeline(arm_spec(name, seed=seed, dim=dim,
                                   gem_config=gem_config, strict=False))
