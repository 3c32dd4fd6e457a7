#!/usr/bin/env bash
# Local CI gate: formatting, lints, the test suite, and tiny-budget
# passes of the product (audited, observed, one entry, fault-injected)
# checked against the pinned fingerprint and against each other.
#
# The tests fix their own budgets in code and read no ATR_* variable;
# the product passes below run at ATR_SIM_WARMUP=500 ATR_SIM_INSTS=2000.
# Full-budget numbers are regenerated with target/release/all_experiments
# (see EXPERIMENTS.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Every scratch file and results dir lives under one temp root that is
# removed however the script exits.
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== perfbench builds against the pipeline API"
# perfbench is a package of its own (not a workspace member), so the
# gates above never compile it; a pipeline API change that breaks the
# benchmark fails here instead of in the perf gate. Its committed
# Cargo.lock is stale (any build rewrites it), so it is restored after.
perfbench_lock="$scratch/perfbench.lock"
cp perfbench/Cargo.lock "$perfbench_lock"
perfbench_status=0
cargo check --release --offline --manifest-path perfbench/Cargo.toml || perfbench_status=$?
cp "$perfbench_lock" perfbench/Cargo.lock
if [ "$perfbench_status" -ne 0 ]; then
    echo "FAIL: perfbench does not build against the workspace crates" >&2
    exit 1
fi

echo "== cargo doc -D warnings"
# Broken intra-doc links are what a deletion leaves behind in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== no process-environment mutation in the workspace"
# Knobs are parsed from an explicit lookup (Session::from_lookup), so no
# code or test needs to write the process environment; a test that did
# would race every sibling test reading it.
if grep -rnE '\b(set_var|remove_var)\b' crates src tests; then
    echo "FAIL: std::env::set_var/remove_var under crates/, src/ or tests/" >&2
    exit 1
fi

echo "== the model reads no environment"
# Every knob is resolved once at process entry (Session, TelemetryConfig,
# budget_from_env in atr-sim) and handed down as configuration; the
# model crates themselves never consult the process environment.
model_src="crates/isa/src crates/workload/src crates/frontend/src crates/mem/src"
model_src="$model_src crates/core/src crates/pipeline/src crates/analysis/src"
# shellcheck disable=SC2086
if grep -rnE 'env::var|var_os' $model_src; then
    echo "FAIL: an environment read in a model crate" >&2
    exit 1
fi

echo "== cargo test"
# Includes the root test tests/figure_fingerprint.rs, which runs a plain
# tiny pass of the product and pins its fingerprint to
# tests/golden/tiny_fingerprint.txt, and the telemetry off-path guard
# (crates/sim/tests/telemetry.rs: off records only the CPI stack).
cargo test --workspace --offline -q

echo "== release build of the product (the tier-1 build command)"
cargo build --release --offline

fingerprint() { cat "$1"/*.json | sha256sum | cut -d' ' -f1; }
# Change the pin only together with a CHANGES.md entry that names and
# justifies every figure number that moved.
pinned_fp="$(cat tests/golden/tiny_fingerprint.txt)"
tiny="ATR_SIM_WARMUP=500 ATR_SIM_INSTS=2000 ATR_SIM_PROGRESS=0"

echo "== all_experiments with rename auditor (tiny budget)"
# Re-runs the experiment matrix with the cycle-level rename/release
# auditor attached; any invariant violation panics the run. The results
# dir is redirected so the tiny-budget pass never clobbers the committed
# full-budget results/*.json; its fingerprint is compared with the pin
# below. Stdout is captured to assert the telemetry-off default emits
# zero telemetry records.
audit_out="$scratch/audit.out"
audit_results="$scratch/audit_results"
env $tiny ATR_AUDIT=1 ATR_RESULTS_DIR="$audit_results" \
    target/release/all_experiments >"$audit_out"
if grep -q "atr-run-telemetry" "$audit_out"; then
    echo "FAIL: telemetry records leaked onto stdout with ATR_TELEMETRY unset" >&2
    exit 1
fi

echo "== all_experiments with rename auditor at the smallest budget (40 + 160)"
# So few instructions stop many runs with a resolved, mispredicted
# branch still in flight; the end-of-run CoreStats consistency audit
# must hold there too. Any failed point makes the pass exit 1.
small_err="$scratch/small.err"
small_results="$scratch/small_results"
ATR_AUDIT=1 ATR_SIM_WARMUP=40 ATR_SIM_INSTS=160 ATR_SIM_PROGRESS=0 \
    ATR_RESULTS_DIR="$small_results" \
    target/release/all_experiments >/dev/null 2>"$small_err" || {
    echo "FAIL: the audited 40 + 160 pass failed" >&2
    grep -E "failed|panicked" "$small_err" | head -20 >&2
    exit 1
}
if grep -q "points failed" "$small_err"; then
    echo "FAIL: the audited 40 + 160 pass reported failed points" >&2
    exit 1
fi

echo "== all_experiments with telemetry + audit (tiny budget, one worker), JSONL schema check"
# With ATR_TELEMETRY=stats the executor emits one JSONL record per
# simulated point on stdout (all narrative goes to stderr); every line
# must parse and satisfy the record schema, including the CPI-stack
# Σ slots == width x cycles invariant (also asserted per-cycle in-core
# because ATR_AUDIT=1 is set). The pass runs on one worker so that the
# observation gate below also covers the worker count.
telemetry_out="$scratch/telemetry.jsonl"
telemetry_results="$scratch/telemetry_results"
env $tiny ATR_TELEMETRY=stats ATR_AUDIT=1 ATR_SIM_THREADS=1 ATR_RESULTS_DIR="$telemetry_results" \
    target/release/all_experiments >"$telemetry_out"
target/release/all_experiments --check-jsonl "$telemetry_out"

echo "== observation gate: observed passes reproduce the pinned fingerprint and tables"
# The cycle loop skips quiet cycles on one path whether telemetry and
# audit are on or off, so the observed passes above must reproduce the
# plain pass's figures bit for bit; cargo test pins that pass to the
# same file. Every run accounts its CPI stack, so the tables (fig10.txt
# ends with the CPI stacks) must not depend on the telemetry level or
# the worker count either.
audit_fp=$(fingerprint "$audit_results")
telemetry_fp=$(fingerprint "$telemetry_results")
if [ "$audit_fp" != "$pinned_fp" ] || [ "$telemetry_fp" != "$pinned_fp" ]; then
    echo "FAIL: observation changed the figures" >&2
    echo "  pinned $pinned_fp / audit $audit_fp / telemetry+audit $telemetry_fp" >&2
    exit 1
fi
for table in "$audit_results"/*.txt; do
    if ! cmp "$table" "$telemetry_results/$(basename "$table")"; then
        echo "FAIL: $(basename "$table") depends on the telemetry level or the worker count" >&2
        exit 1
    fi
done
echo "observation gate OK: observed passes match the pin, and their tables are identical"

echo "== all_experiments --only: two entries, the same bytes"
# A pass over some registry entries ensures only those entries' points;
# their files must equal the audited full pass's byte for byte (results
# are keyed by point, not by what else the pass simulated, and the
# auditor observes without perturbing): fig10.txt's CPI stacks and
# fig06's lifetime summaries included.
only_results="$scratch/only_results"
env $tiny ATR_RESULTS_DIR="$only_results" \
    target/release/all_experiments --only fig06,fig10 >/dev/null
only_files="fig06.json fig06.txt fig10.json fig10.txt"
for file in $only_files; do
    if ! cmp "$only_results/$file" "$audit_results/$file"; then
        echo "FAIL: --only fig06,fig10 diverged from the audited full pass's $file" >&2
        exit 1
    fi
done
if [ "$(ls "$only_results" | tr '\n' ' ')" != "$only_files " ]; then
    echo "FAIL: --only fig06,fig10 wrote other files: $(ls "$only_results")" >&2
    exit 1
fi
only_err="$scratch/only.err"
status=0
target/release/all_experiments --only nope >/dev/null 2>"$only_err" || status=$?
if [ "$status" -ne 2 ] || ! grep -q "valid names: .*fig13" "$only_err"; then
    echo "FAIL: --only nope must exit 2 and list the valid names (exit $status)" >&2
    cat "$only_err" >&2
    exit 1
fi
echo "--only OK: fig06 and fig10 identical, an unknown name exits 2"

echo "== panic isolation: a fault-injected pass thins, says so and exits 1"
# ATR_FAULT_INJECT panics every point whose label contains the needle.
# The pass must isolate those points, still write the entry's files from
# the surviving set, log the coverage marker, and exit 1, so a script
# can tell a thinned pass from a complete one.
fault_results="$scratch/fault_results"
fault_err="$scratch/fault.err"
status=0
env $tiny ATR_RESULTS_DIR="$fault_results" ATR_FAULT_INJECT=505.mcf_r \
    target/release/all_experiments --only fig13 >/dev/null 2>"$fault_err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q "4/92 points failed" "$fault_err"; then
    echo "FAIL: a fault-injected pass must exit 1 and log 4/92 points failed (exit $status)" >&2
    tail -20 "$fault_err" >&2
    exit 1
fi
if [ "$(ls "$fault_results")" != "$(printf 'fig13.json\nfig13.txt')" ]; then
    echo "FAIL: the fault-injected pass must still write fig13's files: $(ls "$fault_results")" >&2
    exit 1
fi
echo "panic isolation OK: 4/92 points failed, fig13 written from the surviving set, exit 1"

echo "CI OK"
