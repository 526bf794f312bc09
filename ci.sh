#!/usr/bin/env sh
# Repo CI gate: formatting, release build, full test suite (under a 1-thread
# and a 4-thread worker pool, to exercise the parallel engine's determinism
# contract), lint-clean under clippy, a fast end-to-end serving smoke
# (EXT-8), the hot-row-cache skew-sweep smoke (EXT-9, asserts
# BENCH_skew.json is produced and well-formed), the link-utilization smoke
# (EXT-10, asserts BENCH_netutil.json is produced with the smoothing claim
# holding), and the wall-clock benchmark smoke (asserts BENCH_wallclock.json
# is produced and well-formed), the chaos-sweep smoke (EXT-7, asserts the
# SLO-violation-minutes columns land in chaos.csv), the pod-fabric smoke
# (EXT-11, asserts BENCH_pods.json is produced with both crossover claims
# holding), the executed-pipeline smoke (EXT-15, asserts BENCH_pipeline.json
# is produced with both scheduling claims holding), and the
# adaptive control-plane smoke (EXT-13, asserts
# BENCH_adapt.json is produced and claims adaptive dominance), the
# critical-path blame smoke (EXT-16, asserts BENCH_blame.json is produced
# with the exposed-communication claim holding), and a telemetry-off
# byte-identity check (fresh weak-scaling CSVs must match the committed
# results/ bodies exactly), and the benchmark package's own tests plus its
# smoke run (so a refactor that breaks the API surface benchmark/ pins fails
# here, not at the benchmark gate). Run from the repo root. Fails fast on
# the first broken step.
set -eu

cargo fmt --all -- --check
cargo build --release --workspace --offline
RAYON_NUM_THREADS=1 cargo test -q --workspace --offline
RAYON_NUM_THREADS=4 cargo test -q --workspace --offline
cargo clippy --all-targets --workspace --offline -- -D warnings
# Targeted perf-lint pass over the serial hot path (core + pool): deny the
# allocation/copy lints the arena overhaul exists to keep out.
cargo clippy -p emb-retrieval -p rayon --all-targets --offline -- \
    -D warnings \
    -D clippy::redundant_clone \
    -D clippy::unnecessary_to_owned \
    -D clippy::cloned_instead_of_copied \
    -D clippy::inefficient_to_string
cargo run --release -p bench-harness --offline -- serve --smoke
# The benchmark is its own package (own workspace, path deps on crates/*):
# build it against this tree, run its unit tests and one smoke pass.
cargo test --manifest-path benchmark/Cargo.toml --offline
bash benchmark/run.sh --smoke > /dev/null

wc_dir=$(mktemp -d)
trap 'rm -rf "$wc_dir"' EXIT
# The binary itself validates the JSON (validate_wallclock_json) and panics
# on a malformed document; the shell checks the artifact landed non-empty
# with the expected top-level keys.
cargo run --release -p bench-harness --offline -- wallclock --smoke --out-dir "$wc_dir" > /dev/null
test -s "$wc_dir/BENCH_wallclock.json"
grep -q '"threads"' "$wc_dir/BENCH_wallclock.json"
grep -q '"benchmarks"' "$wc_dir/BENCH_wallclock.json"
grep -q '"bit_identical": true' "$wc_dir/BENCH_wallclock.json"
# Serial hot-path perf gates: the end-to-end batch must (a) never slow down
# when widening the pool (speedup_vs_1 >= 1 at every thread count — inline
# degradation makes this exact on small hosts) and (b) beat the pre-overhaul
# serial time of 0.000906 s at this smoke scale.
awk '
  /"name": "end_to_end_batch"/ { inb = 1 }
  inb && /"best_secs"/ {
    line = $0; sub(/.*\[/, "", line); sub(/\].*/, "", line)
    split(line, a, ","); serial = a[1] + 0
  }
  inb && /"speedup_vs_1"/ {
    line = $0; sub(/.*\[/, "", line); sub(/\].*/, "", line)
    n = split(line, s, ",")
    for (i = 1; i <= n; i++) if (s[i] + 0 < 1.0) bad = 1
    exit
  }
  END {
    if (serial <= 0 || serial >= 0.000906) {
      print "ci: end_to_end_batch serial " serial "s not under seed 0.000906s" > "/dev/stderr"
      exit 1
    }
    if (bad) {
      print "ci: end_to_end_batch self-speedup dipped below 1.0" > "/dev/stderr"
      exit 1
    }
  }
' "$wc_dir/BENCH_wallclock.json"
# Zero-allocation claim: one warmed arena_reuse repetition must not touch
# the heap (the counting allocator measured exactly 0 calls).
grep -q '"steady_allocs": 0' "$wc_dir/BENCH_wallclock.json"

# EXT-9 smoke: a tiny cache x skew grid must still emit a well-formed
# BENCH_skew.json (the binary validates it; the shell re-checks the keys).
cargo run --release -p bench-harness --offline -- skew --smoke --out-dir "$wc_dir" > /dev/null
test -s "$wc_dir/BENCH_skew.json"
grep -q '"cells"' "$wc_dir/BENCH_skew.json"
grep -q '"measured_hit"' "$wc_dir/BENCH_skew.json"
grep -q '"headline_pgas_speedup"' "$wc_dir/BENCH_skew.json"

# EXT-10 smoke: the link-utilization experiment must emit well-formed
# artifacts and the smoothing claim must hold (PGAS peak-to-mean strictly
# below baseline — the validator refuses to emit otherwise; the shell
# re-checks the flag and the headline keys).
cargo run --release -p bench-harness --offline -- netutil --smoke --out-dir "$wc_dir" > /dev/null
test -s "$wc_dir/netutil.csv"
test -s "$wc_dir/BENCH_netutil.json"
grep -q '"experiment": "netutil"' "$wc_dir/BENCH_netutil.json"
grep -q '"peak_to_mean"' "$wc_dir/BENCH_netutil.json"
grep -q '"smoothing_ok": true' "$wc_dir/BENCH_netutil.json"
# EXT-7 smoke: the chaos sweep must run end to end at CI scale and report
# the SLO-violation-minutes columns for both backends.
cargo run --release -p bench-harness --offline -- chaos --smoke --out-dir "$wc_dir" > /dev/null
test -s "$wc_dir/chaos.csv"
grep -q 'pgas_slo_viol_min' "$wc_dir/chaos.csv"
grep -q 'base_slo_viol_min' "$wc_dir/chaos.csv"

# EXT-11 smoke: the pod-fabric sweep must emit both artifacts and both
# crossover claims must hold (flat per-row PGAS losing to the hierarchical
# alltoall across nodes, and gateway aggregation restoring the PGAS win —
# the validator refuses to emit a false claim; the shell re-checks and
# refuses a false flag outright), plus the EXT-2 cross-check staying
# within its 10% tolerance.
cargo run --release -p bench-harness --offline -- pods --smoke --out-dir "$wc_dir" > /dev/null
test -s "$wc_dir/pods.csv"
test -s "$wc_dir/BENCH_pods.json"
grep -q '"experiment": "pods"' "$wc_dir/BENCH_pods.json"
grep -q '"ext2_crosscheck"' "$wc_dir/BENCH_pods.json"
if grep -q '"flat_pgas_loses_cross_node": false' "$wc_dir/BENCH_pods.json"; then
    echo "ci: BENCH_pods.json claims flat PGAS never loses across nodes" >&2
    exit 1
fi
if grep -q '"gateway_recovers_pgas": false' "$wc_dir/BENCH_pods.json"; then
    echo "ci: BENCH_pods.json claims gateway aggregation does NOT recover the win" >&2
    exit 1
fi
grep -q '"flat_pgas_loses_cross_node": true' "$wc_dir/BENCH_pods.json"
grep -q '"gateway_recovers_pgas": true' "$wc_dir/BENCH_pods.json"
grep -q '"within_tolerance": true' "$wc_dir/BENCH_pods.json"

# EXT-15 smoke: the executed-pipeline sweep must emit both artifacts and
# both scheduling claims must hold (the fused + software-pipelined schedule
# beating the analytic serial one on every cell for both backends, and a
# single-node cell where PGAS's lead does not shrink under fusion — the
# validator refuses to emit a false claim; the shell re-checks and refuses
# a false flag outright).
cargo run --release -p bench-harness --offline -- pipeline --smoke --out-dir "$wc_dir" > /dev/null
test -s "$wc_dir/pipeline.csv"
test -s "$wc_dir/BENCH_pipeline.json"
grep -q '"experiment": "pipeline"' "$wc_dir/BENCH_pipeline.json"
grep -q '"base_exec_ms"' "$wc_dir/BENCH_pipeline.json"
if grep -q '"fusion_wins": false' "$wc_dir/BENCH_pipeline.json"; then
    echo "ci: BENCH_pipeline.json claims the executed schedule does NOT beat analytic-serial" >&2
    exit 1
fi
if grep -q '"pgas_lead_widens": false' "$wc_dir/BENCH_pipeline.json"; then
    echo "ci: BENCH_pipeline.json claims fusion does NOT widen the PGAS lead" >&2
    exit 1
fi
grep -q '"fusion_wins": true' "$wc_dir/BENCH_pipeline.json"
grep -q '"pgas_lead_widens": true' "$wc_dir/BENCH_pipeline.json"

# EXT-16 smoke: the critical-path blame decomposition must emit all three
# artifacts and the exposed-communication claim must hold (>= 30% of the
# baseline critical path, <= 5% under PGAS, on the DGX pair at paper
# scale — the validator refuses to emit a false claim; the shell re-checks
# and refuses a false flag outright).
cargo run --release -p bench-harness --offline -- blame --smoke --out-dir "$wc_dir" > /dev/null
test -s "$wc_dir/blame.csv"
test -s "$wc_dir/BENCH_blame.json"
test -s "$wc_dir/blame_folded.txt"
grep -q '"experiment": "blame"' "$wc_dir/BENCH_blame.json"
grep -q '"blame_ns"' "$wc_dir/BENCH_blame.json"
grep -q 'critical_path' "$wc_dir/blame_folded.txt"
if grep -q '"exposed_comm_eliminated": false' "$wc_dir/BENCH_blame.json"; then
    echo "ci: BENCH_blame.json claims exposed communication was NOT eliminated" >&2
    exit 1
fi
grep -q '"exposed_comm_eliminated": true' "$wc_dir/BENCH_blame.json"

# Observability must be inert when off: rerunning the weak-scaling family
# with no telemetry/blame enabled must reproduce the committed CSV bodies
# byte for byte.
cargo run --release -p bench-harness --offline -- table1 --out-dir "$wc_dir" > /dev/null
cargo run --release -p bench-harness --offline -- fig5 --out-dir "$wc_dir" > /dev/null
for f in table1.csv fig5.csv; do
    cmp -s "$wc_dir/$f" "results/$f" || {
        echo "ci: results/$f drifted from a fresh telemetry-off run" >&2
        exit 1
    }
done

# EXT-13 smoke: the adaptive-vs-static scenario suite must emit both
# artifacts and the dominance claim must hold (the validator refuses to
# emit "adaptive_dominates": false; the shell re-checks the flag and
# refuses a false one outright).
cargo run --release -p bench-harness --offline -- adapt --smoke --out-dir "$wc_dir" > /dev/null
test -s "$wc_dir/adapt.csv"
test -s "$wc_dir/BENCH_adapt.json"
grep -q '"experiment": "adapt"' "$wc_dir/BENCH_adapt.json"
grep -q '"cells"' "$wc_dir/BENCH_adapt.json"
if grep -q '"adaptive_dominates": false' "$wc_dir/BENCH_adapt.json"; then
    echo "ci: BENCH_adapt.json claims the adaptive policy does NOT dominate" >&2
    exit 1
fi
grep -q '"adaptive_dominates": true' "$wc_dir/BENCH_adapt.json"
echo "ci: all gates passed"
