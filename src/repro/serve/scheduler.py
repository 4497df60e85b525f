"""Background maintenance worker for a serving runtime.

The :class:`MaintenanceScheduler` is the piece that turns the passive
fleet library into a daemon: a single worker thread that periodically
**pumps** the runtime's decision bus into its controller (executing any
scheduled or telemetry-triggered refreshes there, off the observe path).
The controller is single-threaded by design, and
maintenance is IO/compute the fleet lock already orders against the
data plane.

Failure containment: a maintenance exception (e.g. a refresh discarded
because its tenant was evicted mid-rebuild) must not kill the daemon.
Each tick catches errors into a bounded ``errors`` log and keeps going;
inspect it (or ``stats()``) from operational code.  Decisions the
failed pump had already popped still count as drained.

Clean shutdown: :meth:`stop` wakes the worker, joins it, and runs one
final synchronous drain so every decision observed before the stop is
folded into the controller — the conservation property the
concurrency tests pin.
"""

from __future__ import annotations

import threading
import time
import traceback

from repro.obs.metrics import MetricsRegistry

__all__ = ["MaintenanceScheduler", "drained_counter"]

_MAX_ERRORS = 64


def _count(family) -> int:
    """An unlabeled counter family's value; reading never creates its series."""
    return int(sum(child.value for _, child in family.series()))


def drained_counter(metrics: MetricsRegistry):
    """The decisions-drained family: the runtime's pump counts into it,
    a scheduler on the same registry reads it."""
    return metrics.counter(
        "repro_scheduler_decisions_drained_total",
        help="Decisions drained from the decision bus into the controller")


class MaintenanceScheduler:
    """Periodic pump of a :class:`~repro.serve.runtime.ServingRuntime`.

    Parameters
    ----------
    runtime:
        The runtime to maintain: anything with ``pump()`` and
        ``pending_decisions``, whose pump counts into
        :func:`drained_counter` of the same ``metrics``.
    interval:
        Seconds between ticks.  Each tick drains the decision bus;
        refreshes the controller decides on run inside the tick.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` holding the
        ticks, drained decisions and errors counters (a private one when
        None; one scheduler per registry).  :meth:`stats` reads them
        back; the drained count is the runtime pump's own.  Pump
        recency goes to the runtime's
        ``repro_scheduler_last_pump_age_seconds`` gauge, refreshed by
        its ``metrics()`` snapshot.
    """

    def __init__(self, runtime, interval: float = 0.05, metrics=None):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.runtime = runtime
        self.interval = interval
        self.errors: list[str] = []   # traceback tails, oldest first
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # Monotonic time of the last start() (None: never started).
        self.started_at: float | None = None
        # Monotonic time of the last completed pump (None: never).
        self._last_pump: float | None = None
        if metrics is None:
            metrics = MetricsRegistry()
        self._ticks_counter = metrics.counter(
            "repro_scheduler_ticks_total",
            help="Maintenance ticks completed")
        self._drained_counter = drained_counter(metrics)
        # Cumulative, unlike the bounded error log.
        self._errors_counter = metrics.counter(
            "repro_scheduler_errors_total",
            help="Maintenance exceptions caught (daemon kept running)")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "MaintenanceScheduler":
        """Launch the worker thread (idempotent while running)."""
        if self.running:
            return self
        self._stop.clear()
        self.started_at = time.monotonic()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-maintenance", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the worker and drain what it had not yet pumped.

        After this returns, every decision the data plane enqueued
        before the call has been folded into the controller.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():  # pragma: no cover - only on a wedged tick
                raise RuntimeError("maintenance worker did not stop within "
                                   f"{timeout}s; a tick appears wedged")
        self._thread = None
        # Final synchronous drain: the worker may have been parked on
        # its interval wait while decisions kept arriving.
        self.tick()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.tick()

    # ------------------------------------------------------------------
    # One iteration (public so serial-mode callers can pump by hand)
    # ------------------------------------------------------------------
    def tick(self) -> int:
        """Pump the runtime once; returns decisions drained.

        A pump that raises still reports every decision it popped
        before the error.
        """
        self._ticks_counter.inc()
        before = _count(self._drained_counter)
        try:
            self.runtime.pump()
            self._last_pump = time.monotonic()
        except Exception:
            self._record_error()
        return _count(self._drained_counter) - before

    def _record_error(self) -> None:
        if len(self.errors) >= _MAX_ERRORS:
            del self.errors[: _MAX_ERRORS // 2]
        self.errors.append(traceback.format_exc(limit=4))
        self._errors_counter.inc()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "running": self.running,
            "ticks": _count(self._ticks_counter),
            "decisions_drained": _count(self._drained_counter),
            "pending": self.runtime.pending_decisions,
            "errors": len(self.errors),
            "uptime_seconds": (time.monotonic() - self.started_at
                               if self.started_at is not None else 0.0),
        }

    def last_pump_age(self) -> float | None:
        """Seconds since the last completed pump; None before the first.

        A pump that keeps raising never completes, so the age grows:
        that is the scheduler-staleness health signal.
        """
        if self._last_pump is None:
            return None
        return time.monotonic() - self._last_pump

    def snapshot(self, recent_errors: int = 8) -> dict:
        """Operational snapshot: :meth:`stats` plus the error log.

        ``errors`` becomes a dict — ``count`` is the *cumulative* error
        total (the inline log is bounded and halves when full, so its
        length undercounts a long-lived daemon) and ``recent`` holds the
        last ``recent_errors`` entries as ``{"error"}`` with the
        traceback's final line (the exception message) as the error.
        """
        out = self.stats()
        out["errors"] = {
            "count": _count(self._errors_counter),
            "recent": [{"error": text.strip().rsplit("\n", 1)[-1].strip()}
                       for text in self.errors[-recent_errors:]],
        }
        out["last_pump_age"] = self.last_pump_age()
        return out
