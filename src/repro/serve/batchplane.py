"""The fleet's batch data plane.

Every observation the fleet serves goes through :class:`BatchPlane`:
``GeofenceFleet.observe_many`` hands it each tenant's group, and
``GeofenceFleet.observe`` is a batch of one.  The plane routes the
group through ``EmbeddingGeofencer.observe_many``, the one inference
path of every embedder × detector arm: a graph embedder embeds through
its fitted model's inference kernel (:mod:`repro.nn.batch`), and the
detector's ``score_batch`` scores the embedded rows in chunks (see
:mod:`repro.detection.batch`).

Outcomes
--------

==================  =======================================================
outcome             when
==================  =======================================================
``engaged``         the model has ``observe_many``: every pipeline arm
``fallback_model``  standalone models (SignatureHome, INOA), which have no
                    ``observe_many``: ``model.observe`` per record
==================  =======================================================

Either way the decisions and the model's post-batch state are exactly
what observing the records one at a time would have produced.

The plane caches nothing.  The inference kernel belongs to the fitted
model: built on first use, and dropped when a re-``fit`` or
``load_state_dict`` rebuilds what it captured.  A reprovision or an
evict/reload brings a new model and with it a new kernel, and a
coordinated refresh refits only the detector, so the kernel outlives
refreshes.

Outcomes are counted per ``(arm, outcome)`` in the metric family
``repro_batch_fastpath_total{arm, outcome}`` of the fleet's
:class:`~repro.obs.metrics.MetricsRegistry` (a private one when none is
given).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

__all__ = ["BatchPlane", "arm_label"]


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
    """Per-fleet batch router with outcome counters.

    Not internally locked: the owning fleet calls :meth:`observe_batch`
    under the same lock that serialises every other mutation of the
    tenant's model.
    """

    def __init__(self, metrics: MetricsRegistry | None = None):
        if metrics is None:
            metrics = MetricsRegistry()
        self._family = metrics.counter(
            "repro_batch_fastpath_total",
            help="observe_many batches by arm and fast-path outcome",
            labels=("arm", "outcome"))
        self._children: dict[tuple[str, str], object] = {}

    def observe_batch(self, model, records) -> tuple[list, str]:
        """Route one tenant batch; returns ``(decisions, outcome)``.

        ``outcome`` is ``"engaged"`` or ``"fallback_model"`` (see the
        module docstring).
        """
        if hasattr(model, "observe_many"):
            outcome = "engaged"
            decisions = model.observe_many(records)
        else:
            outcome = "fallback_model"
            decisions = [model.observe(record) for record in records]
        self._count(arm_label(model), outcome)
        return decisions, outcome

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
