"""The fleet's vectorized batch data plane.

``GeofenceFleet.observe_many`` used to decay into a per-record python
loop through the embedder and detector.  :class:`BatchPlane` routes a
tenant's whole batch through ``EmbeddingGeofencer.observe_many``
instead — one hoisted inference kernel, chunked detector scoring —
while caching the kernel *across* batches, keyed by the embedder's
``batch_token()`` identity fingerprint.

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

* **refresh commit** swaps the embedder object entirely (weak key dies);
* **reprovision / evict+reload** replace the whole model (weak key dies);
* **load_state_dict** rebuilds weights, graph and caches (token changes);
* **cache extension** for newly interned MACs rebinds the cache list
  (token changes → conservative rebuild next batch).

Outcomes are counted per ``(arm, outcome)`` and mirrored to the metric
family ``repro_batch_fastpath_total{arm, outcome}`` when a
:class:`~repro.obs.metrics.MetricsRegistry` is attached.
"""

from __future__ import annotations

import weakref

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
    tenant's model, which also guards the kernel cache and counters.
    """

    def __init__(self, metrics=None):
        # model -> (token, kernel); weak keys let evicted/replaced
        # models drop their kernels without any explicit hook.
        self._kernels: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.counts: dict[tuple[str, str], int] = {}
        self._family = None
        self._children: dict[tuple[str, str], object] = {}
        if metrics is not None:
            self._family = metrics.counter(
                "repro_batch_fastpath_total",
                help="observe_many batches by arm and fast-path outcome",
                labels=("arm", "outcome"))

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
            decisions = model.observe_many(records, kernel=self._kernel_for(model))
        self._count(arm_label(model), outcome)
        return decisions, outcome

    def _kernel_for(self, model):
        token = model.embedder.batch_token()
        cached = self._kernels.get(model)
        if cached is not None and cached[0] == token:
            return cached[1]
        kernel = model.embedder.batched_inference()
        self._kernels[model] = (token, kernel)
        return kernel

    def _count(self, arm: str, outcome: str) -> None:
        key = (arm, outcome)
        self.counts[key] = self.counts.get(key, 0) + 1
        if self._family is not None:
            child = self._children.get(key)
            if child is None:
                child = self._family.labels(arm=arm, outcome=outcome)
                self._children[key] = child
            child.inc()

    def engaged_total(self) -> int:
        """Batches that took the fast path (any arm)."""
        return sum(count for (_, outcome), count in self.counts.items()
                   if outcome == "engaged")
