#!/bin/sh
# Runs every workload end to end (--trace 0) and traced (--trace 1), each
# in its own process, from the repository root:
#   sh perfbench/run_all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-25}
for workload in paper serve online-steady online-overload; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
