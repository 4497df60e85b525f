#!/usr/bin/env bash
# Reach survey: run entry points under the reach probe, then diff the
# reached functions against src/repro with reach.py.
#
#   tests/tools/survey.sh ci     CI's entry points only (4-8 min on 2 CPUs)
#   tests/tools/survey.sh full   plus the pytest benches CI does not run,
#                                the other examples and every CLI command CI
#                                skips (15-20 min on 2 CPUs); the keep-list
#                                check in reach.py applies to this set
#
# A failing entry point is reported and the survey goes on: the probe
# records what ran before the failure.  Fixture files (records and events)
# are written by a helper that runs without the probe, so it reaches nothing.
set -uo pipefail
ROOT=$(cd "$(dirname "$0")/../.." && pwd)
MODE=${1:-full}
cd "$ROOT" || exit 1
export PYTHONHASHSEED=0
PROBE="$ROOT/src:$ROOT/tests/tools"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
rm -rf .reach

run() {
    echo "+ $*" >&2
    PYTHONPATH="$PROBE" "$@" > "$WORK/out.log" 2>&1 \
        || { echo "  exit $?; last lines:" >&2; tail -n 5 "$WORK/out.log" >&2; }
}
repro() { run python -m repro "$@"; }

for example in quickstart elderly_care embedding_visualization; do
    run python "examples/$example.py"
done
repro eval --arms all --quick
repro drift --quick --no-baseline --user 1 --epochs 3 --sessions 2 \
    --session-s 20 --train-s 60 --shock-epoch 1
run python benchmarks/bench_fleet_drift.py --quick
run python benchmarks/bench_runtime.py --quick
repro cluster --workers 2 --quick
repro cluster --workers 2 --quick --metrics-out "$WORK/cluster.jsonl"
repro obs render "$WORK/cluster.jsonl"
repro obs render "$WORK/cluster.jsonl" --format prometheus
run python benchmarks/bench_cluster.py --quick
repro obs render benchmarks/results/runtime_metrics.jsonl
repro obs render benchmarks/results/runtime_metrics.jsonl --format prometheus
for workload in routed-churn shock-recovery; do
    for trace in 0 1; do
        run python perfbench/run.py --workload "$workload" --seed 0 \
            --seconds 3 --trace "$trace"
    done
done
run python -m pytest benchmarks/bench_drift.py -q --benchmark-disable
run python -m pytest perfbench -q

if [ "$MODE" = full ]; then
    run python -m pytest -q --benchmark-disable benchmarks/bench_table*.py \
        benchmarks/bench_fig*.py benchmarks/bench_ablations.py \
        benchmarks/bench_fleet_serving.py
    for example in mall_floor_fencing ap_churn_robustness; do
        run python "examples/$example.py"
    done

    PYTHONPATH="$ROOT/src" python - "$WORK" <<'EOF'
import json, sys
from pathlib import Path
from repro.core.io import record_to_dict
from repro.datasets.users import user_dataset
work, dataset = Path(sys.argv[1]), user_dataset(1)
with open(work / "records.jsonl", "w") as out:
    for record in dataset.train[:60]:
        out.write(json.dumps(record_to_dict(record)) + "\n")
with open(work / "events.jsonl", "w") as out:
    for position, labeled in enumerate(dataset.test[:300]):
        out.write(json.dumps({"tenant": ("home-a", "home-b")[position % 2],
                              **record_to_dict(labeled.record)}) + "\n")
(work / "policy.json").write_text('{"check_every": 16, "refresh_every": 32}')
EOF
    registry="$WORK/registry"
    repro components
    repro spec --arm BiSAGE+LOF --dim 8 -o "$WORK/lof.json"
    repro train --spec "$WORK/lof.json" --records "$WORK/records.jsonl" \
        --out "$WORK/lof-checkpoint"
    for tenant in home-a home-b; do
        repro train --arm GEM --user 1 --quick --dim 8 \
            --registry "$registry" --tenant "$tenant"
    done
    repro runtime --registry "$registry" --events "$WORK/events.jsonl" \
        --capacity 1 --policy "$WORK/policy.json" \
        --metrics-out "$WORK/runtime.jsonl" --metrics-interval 0.05
    repro runtime --registry "$registry" --events "$WORK/events.jsonl" \
        --capacity 1 --no-incremental
    repro obs render "$WORK/runtime.jsonl" --diff
    repro obs render "$WORK/runtime.jsonl" "$WORK/runtime.jsonl" --diff --format json
    repro maintain --registry "$registry" --dry-run
    for action in refresh reprovision recover; do
        repro maintain --registry "$registry" --action "$action"
    done
    repro cluster --workers 2 --quick --local --health
    repro cluster --workers 2 --quick --standby "$WORK/standby" --promote
fi

python tests/tools/reach.py
