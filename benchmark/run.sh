#!/usr/bin/env bash
# Build the benchmark if needed, then run it pinned to one CPU.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh aa [--seeds N] [--seconds S] [--workload W]
#
# Everything measured shares one core — the in-process daemon's threads
# included — because unpinned numbers on a small shared box measure
# cross-core wake-ups, not the code (see README.md, "Measurement rules").
set -euo pipefail

here="$(dirname "$0")"
# Not `cd`: a relative CARGO_TARGET_DIR must keep meaning what the caller
# meant by it.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/asha-benchmark"

if command -v taskset >/dev/null 2>&1; then
    # The highest CPU this process may run on: lowest-numbered CPUs take
    # most of a machine's interrupts.
    allowed="$(taskset -cp $$)"
    cpu="${allowed##*[ ,-]}"
    exec taskset -c "$cpu" "$bin" "$@"
fi
echo "run.sh: no taskset here; running unpinned, expect wider spreads" >&2
exec "$bin" "$@"
