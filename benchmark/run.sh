#!/usr/bin/env bash
# Build the benchmark from source and run it. One command:
#
#   benchmark/run.sh                      every workload: end-to-end metrics
#                                         (untraced) then per-layer metrics (traced)
#   benchmark/run.sh --selfcheck          the full set twice, held to its own bounds
#   benchmark/run.sh trace <workload>     one traced run -> benchmark/out/trace_<workload>.json
#   benchmark/run.sh --smoke              scaled_down(16) configs, 1 repetition (CI speed)
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1   the driver's form
#
# Exits non-zero when the build fails (e.g. the crates are missing), when an
# argument is wrong, or when any correctness check fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
# Keep freed heap inside the process between repetitions (glibc otherwise
# unmaps every large buffer and the next repetition page-faults it back in,
# which on a shared box is the noisiest third of pod_exchange's time). First
# touch is still paid, once, in set-up, where setup_s and peak_rss_mb show it.
export MALLOC_TRIM_THRESHOLD_="${MALLOC_TRIM_THRESHOLD_:-17179869184}"
export MALLOC_MMAP_THRESHOLD_="${MALLOC_MMAP_THRESHOLD_:-33554432}"
exec "${CARGO_TARGET_DIR:-$here/target}/release/pgas-benchmark" "$@"
