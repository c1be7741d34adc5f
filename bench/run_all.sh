#!/usr/bin/env bash
# Run every workload once, each in its own process, from the repository root:
#   bash bench/run_all.sh [seed] [trace] [seconds]
# Exits non-zero if any run fails an output check or cannot start.
set -u
seed=${1:-0}
trace=${2:-0}
seconds=${3:-25}
status=0
for workload in street crowd noisy-feat; do
    python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" || status=1
done
exit "$status"
