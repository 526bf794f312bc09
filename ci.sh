#!/usr/bin/env sh
# Repo CI gate. Run from the repo root; fails fast on the first broken step.
#
# Formatting, release build, rustdoc with warnings denied (so a doc link to
# a deleted or private item fails here), the full test suite under a
# 1-thread and a 4-thread worker pool (the parallel engine's determinism
# contract), clippy,
# the benchmark package's own tests and smoke run (so a refactor that breaks
# the API surface benchmark/ pins fails here, not at the benchmark gate),
# then every experiment of `reproduce` (`all`, then `skew`) at smoke scale,
# with `all --smoke` run a second time on a one-thread pool and `diff -r`'d
# against the default width (sweep cells are the only parallel unit, and
# they are collected by index).
# No step asserts a host time: benchmark/ ledgers those (results/
# BENCH_host.jsonl), nothing here gates them. `reproduce` itself refuses to
# write an artifact whose claims do not all hold or whose JSON is malformed
# (it exits 1 naming the claim), so nothing here re-reads a
# BENCH_*.json; the shell only compares the artifacts that have no smoke
# parameters with the committed results/, byte for byte (which also pins
# "observability is inert when off"). The observer-on artifacts (pods,
# netutil, blame: telemetry timelines and blame vectors) get the same byte
# gate from three full-scale runs, about 3 + 0.3 + 6 s; so do the four
# artifacts that lean hardest on shared plans: chaos (stragglers and link
# faults over shared PlannedBatches, i.e. the per-device schedule store and
# its refusals, about 2 s), serve (the request pool and the memoized
# canonical plans, about 6 s), adapt (the controlled serving path: tier
# switches requeue closed batches, leaving misaligned windows planned fresh
# from pool runs, and hot-cache resizes drop the canonical plans; about
# 3 s) and pipeline (the executed engine, which runs every batch through
# the one per-batch backend method with an arrival log, on the DGX and
# pods; about 6.5 s). On its DGX cells (8 batches over 4 plans, replayed
# since the serial pipeline recorded them) the engine's first batch of each
# plan computes the plan's arrival gates from its records and the later
# ones read them off the plan; the pod cells, whose cross-node trains never
# replay, and trace_pipeline.json (a traced machine) sort and walk every
# entry. The three Chrome traces of the timeline_trace
# example join them (about 2 s): a traced machine refuses to replay recorded
# deliveries but launches kernels by their recorded length, which must leave
# the very trace events dispatching the blocks leaves.
set -eu

# Non-test lines, the figure CHANGES.md quotes per simplicity PR: every line
# before the first `#[cfg(test)]` of each source file. Printed, not gated.
find crates/*/src src examples -name '*.rs' | sort | xargs awk \
    'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print "ci: non-test lines " n}'

cargo fmt --all -- --check
cargo build --release --workspace --offline
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
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
# One public name per fabric operation: the names benchmark/ pins live in
# each crate's `compat` module, every one `#[deprecated]`, so the clippy
# steps above (-D warnings) fail on any caller outside compat but the tests
# that exercise the forwards (`#[allow(deprecated)]`). Fail here if a
# compat item is not deprecated, itself or through the type it belongs to.
awk '
    FNR == 1 { split("", dep); cur = ""; d = 0 }
    /#\[deprecated/ { d = 1; next }
    /^impl/ { cur = $0; sub(/^impl(<[^>]*>)? /, "", cur); sub(/[ <].*/, "", cur); next }
    /^}/ { cur = "" }
    /^ *pub (fn|struct|trait|type|enum|const|static) / {
        name = $3; sub(/[^A-Za-z0-9_].*/, "", name)
        if (!d && !(cur in dep)) {
            print "ci: " FILENAME ": " name " is not deprecated" > "/dev/stderr"; bad = 1
        }
        if (d) dep[name] = 1
        d = 0
    }
    END { exit bad }
' crates/*/src/compat.rs
# The benchmark is its own package (own workspace, path deps on crates/*):
# build it against this tree, run its unit tests and one smoke pass.
cargo test --manifest-path benchmark/Cargo.toml --offline
bash benchmark/run.sh --smoke > /dev/null

d=$(mktemp -d)
d1=$(mktemp -d)
d2=$(mktemp -d)
trap 'rm -rf "$d" "$d1" "$d2"' EXIT
reproduce="cargo run --release -p bench-harness --offline --"
$reproduce all --smoke --out-dir "$d" > /dev/null
RAYON_NUM_THREADS=1 $reproduce all --smoke --out-dir "$d1" > /dev/null
diff -r "$d" "$d1" > /dev/null || {
    echo "ci: reproduce all --smoke differs at RAYON_NUM_THREADS=1" >&2
    exit 1
}
$reproduce skew --smoke --out-dir "$d" > /dev/null

# Every named file of directory $1 equals its namesake in results/.
same_as_results() {
    dir=$1
    shift
    for f in "$@"; do
        cmp -s "$dir/$f" "results/$f" || {
            echo "ci: results/$f drifted from a fresh run" >&2
            exit 1
        }
    done
}
# These experiments have no smoke parameters, so `all --smoke` ran them at
# full scale: backward and ablation-sharding, which read every block's
# destinations (the backward pass transposes them, row-wise sharding sends
# every bag), are gated here without a second run.
same_as_results "$d" table1.csv BENCH_table1.json fig5.csv fig6.csv \
    table2.csv BENCH_table2.json fig8.csv fig9.csv fig7.csv fig10.csv \
    backward.csv ablation-msgsize.csv ablation-sharding.csv \
    whatif.csv ablation-zipf.csv
# Full scale, one experiment per invocation: observers on (pods, netutil,
# blame), then shared plans under faults (chaos), under serving (serve),
# under the serving control plane (adapt) and under the executed pipeline
# engine (pipeline).
for e in pods netutil blame chaos serve adapt pipeline; do
    $reproduce "$e" --out-dir "$d2" > /dev/null
done
cargo run --release --example timeline_trace --offline -- --out-dir "$d2" > /dev/null
same_as_results "$d2" pods.csv BENCH_pods.json netutil.csv BENCH_netutil.json \
    blame.csv BENCH_blame.json blame_folded.txt chaos.csv serve.csv \
    adapt.csv BENCH_adapt.json pipeline.csv BENCH_pipeline.json \
    trace_baseline.json trace_pgas.json trace_pipeline.json
echo "ci: all gates passed"
