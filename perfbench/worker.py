"""Cluster worker entry point for the routed workload.

Runs the stock ``repro.serve.cluster.worker.main``.  When
``PERFBENCH_WORKER_TRACE`` names a file, the worker's layer boundaries
are wrapped with the same span recorder the in-process workloads use,
and the spans are written to that file when the worker exits.
"""

import json
import os
import sys

from spans import Recorder, install


def main() -> int:
    out = os.environ.get("PERFBENCH_WORKER_TRACE")
    recorder = Recorder() if out else None
    if recorder is not None:
        install(recorder, side="server")
    from repro.serve.cluster.worker import main as serve
    try:
        return serve()
    finally:
        if recorder is not None:
            with open(out, "w") as handle:
                json.dump([span.to_dict() for span in recorder.spans], handle)


if __name__ == "__main__":
    sys.exit(main())
