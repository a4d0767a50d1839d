#!/usr/bin/env bash
# Benchmark smoke run: builds perfbench (a package of its own, so
# `cargo test` never compiles it) and runs each workload briefly. Fails
# unless every run's last line reports "correct": true. Catches a change
# to a public API the benchmark calls, or a workload that no longer runs
# correctly, before the benchmark itself is run.
#
#   scripts/perfbench_smoke.sh            # 3 s per workload
#   PERFBENCH_SECONDS=5 scripts/perfbench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SECONDS_PER_RUN="${PERFBENCH_SECONDS:-3}"
cargo build --release --manifest-path perfbench/Cargo.toml
for workload in nat-read mon-write failover; do
    last="$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1)"
    echo "perfbench_smoke: $workload: $last"
    case "$last" in
    *'"correct": true'*) ;;
    *)
        echo "perfbench_smoke: $workload did not report \"correct\": true" >&2
        exit 1
        ;;
    esac
done
echo "perfbench_smoke: clean"
