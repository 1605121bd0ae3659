#!/usr/bin/env bash
# Builds the benchmark package and runs it.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload in one process; the last line of standard
#       output is the JSON result (this is BENCHMARK.json's command).
#
#   run.sh [--seed <n>] [--seconds <s>]
#       the suite: every workload untraced, then traced, one process per
#       run. Prints every metric by name with its unit, and fails if any
#       op failed or if a traced run's rl.weights_checksum differs from
#       the untraced run's (same seed, same trajectory).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Build from the repository root so that its .cargo/config.toml
# (-C target-cpu=native) applies and a relative CARGO_TARGET_DIR
# resolves where the caller meant it.
cd "$here/../.."
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/fixar-e2e"

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$bin" "$@" --out "$here/out"
    fi
done

status=0
for workload in train_paper_b64 train_fleet64_host serve_sat_model serve_sat_door; do
    sums=()
    for trace in 0 1; do
        log="$("$bin" --workload "$workload" "$@" --trace "$trace" --out "$here/out")" || status=1
        printf '%s\n\n' "$log"
        sums+=("$(grep '^# rl.weights_checksum' <<<"$log" || true)")
    done
    if [[ "${sums[0]}" != "${sums[1]}" ]]; then
        echo "FAILED: $workload: traced and untraced rl.weights_checksum differ" >&2
        status=1
    fi
done
if [[ $status -ne 0 ]]; then
    echo "FAILED: see above" >&2
fi
exit $status
