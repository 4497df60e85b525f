"""The fleet's vectorized batch data plane.

Every observation the fleet serves goes through :class:`BatchPlane`:
``GeofenceFleet.observe_many`` hands it each tenant's group, and
``GeofenceFleet.observe`` is a batch of one.  The plane routes the
group through ``EmbeddingGeofencer.observe_many`` — one hoisted
inference kernel, chunked detector scoring — while caching the kernel
*across* batches, keyed by the embedder's ``batch_token()`` identity
fingerprint.

Eligibility and fallback
------------------------
``fastpath_reason`` names why a model cannot take the fast path:

========================  ====================================================
reason                    what falls back
========================  ====================================================
``model``                 standalone models (SignatureHome, INOA) and anything
                          without ``observe_many`` (no batch contract at all)
``embedder``              matrix embedders (autoencoder / MDS / imputed
                          matrix) — no hoisted inference kernel
``detector``              LOF / iForest / feature bagging — their dense
                          kernels are batch-size-dependent, so batch scores
                          would not be bit-identical (see the registry's
                          ``supports_batch_score`` flag)
========================  ====================================================

Fallback means exactly the old behaviour: ``model.observe`` per record.

Cache invalidation
------------------
A cached kernel is reused only while the embedder's ``batch_token()``
matches the one captured with it.  The token is built from object
identities of everything the kernel reads, so every event that could
change inference output invalidates it for free:

* **reprovision / evict+reload** replace the whole model (weak key dies);
* **load_state_dict** or a re-``fit`` rebuilds weights, graph and caches
  (token changes).

Nothing else moves them: serving embeds records without connecting them
into the graph, and a coordinated refresh refits only the detector, so
a kernel stays valid across refreshes.

Outcomes are counted per ``(arm, outcome)`` in the metric family
``repro_batch_fastpath_total{arm, outcome}`` of the fleet's
:class:`~repro.obs.metrics.MetricsRegistry` (a private one when none is
given).
"""

from __future__ import annotations

import weakref

from repro.obs.metrics import MetricsRegistry

__all__ = ["BatchPlane", "fastpath_reason", "arm_label"]


def fastpath_reason(model) -> str | None:
    """None when the fast path may engage, else the fallback reason."""
    if not hasattr(model, "observe_many") or not hasattr(model, "embedder"):
        return "model"
    embedder = model.embedder
    if not (hasattr(embedder, "supports_batch_inference")
            and embedder.supports_batch_inference()):
        return "embedder"
    detector = model.detector
    if not (hasattr(detector, "supports_batch_score")
            and detector.supports_batch_score()):
        return "detector"
    return None


def arm_label(model) -> str:
    """Low-cardinality arm label for fast-path accounting.

    Uses the stamped :class:`~repro.pipeline.spec.PipelineSpec` when the
    model was built declaratively (``gem``, ``bisage+lof``, ...), else
    the model's type name.
    """
    spec = getattr(model, "spec", None)
    if spec is not None:
        if spec.model is not None:
            return spec.model.name
        return f"{spec.embedder.name}+{spec.detector.name}"
    return type(model).__name__.lower()


class BatchPlane:
    """Per-fleet batch router with a kernel cache and outcome counters.

    Not internally locked: the owning fleet calls :meth:`observe_batch`
    under the same lock that serialises every other mutation of the
    tenant's model, which also guards the kernel cache.
    """

    def __init__(self, metrics: MetricsRegistry | None = None):
        # model -> (token, kernel); weak keys let evicted/replaced
        # models drop their kernels without any explicit hook.
        self._kernels: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        if metrics is None:
            metrics = MetricsRegistry()
        self._family = metrics.counter(
            "repro_batch_fastpath_total",
            help="observe_many batches by arm and fast-path outcome",
            labels=("arm", "outcome"))
        self._children: dict[tuple[str, str], object] = {}

    def observe_batch(self, model, records) -> tuple[list, str]:
        """Route one tenant batch; returns ``(decisions, outcome)``.

        ``outcome`` is ``"engaged"`` or ``"fallback_<reason>"``; either
        way the decisions (and the model's post-batch state) are exactly
        what the scalar per-record loop would have produced.
        """
        reason = fastpath_reason(model)
        if reason is not None:
            outcome = f"fallback_{reason}"
            decisions = [model.observe(record) for record in records]
        else:
            outcome = "engaged"
            decisions = model.observe_many(records, kernel=self.kernel_for(model))
        self._count(arm_label(model), outcome)
        return decisions, outcome

    def kernel_for(self, model):
        """The cached inference kernel for ``model``'s embedder, or None
        when the embedder has none (matrix embedders, standalone models).

        Also serves the fleet's off-batch callers (the quarantine's
        consistency gate), so they replay the same kernel as the batch.
        """
        embedder = getattr(model, "embedder", None)
        if not (hasattr(embedder, "supports_batch_inference")
                and embedder.supports_batch_inference()):
            return None
        token = embedder.batch_token()
        cached = self._kernels.get(model)
        if cached is not None and cached[0] == token:
            return cached[1]
        kernel = embedder.batched_inference()
        self._kernels[model] = (token, kernel)
        return kernel

    def _count(self, arm: str, outcome: str) -> None:
        key = (arm, outcome)
        child = self._children.get(key)
        if child is None:
            child = self._family.labels(arm=arm, outcome=outcome)
            self._children[key] = child
        child.inc()

    def engaged_total(self) -> int:
        """Batches that took the fast path (any arm)."""
        return int(sum(child.value for labels, child in self._family.series()
                       if labels["outcome"] == "engaged"))
